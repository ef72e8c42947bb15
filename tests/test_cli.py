"""CLI: subcommands, exit codes, JSON/CSV outputs, the element cap, flags."""
import csv
import json

import pytest

from epsolve.chains import cocone_to_json, colimit_finite
from epsolve.cli import build_parser, main
from epsolve.finposet import DEFAULT_ELEM_CAP
from epsolve.opairs import enumerate_pairs
from epsolve.suite import counterexample_cocone
from tests.test_chains import n1_chain


@pytest.fixture
def counterexample_path(tmp_path):
    path = tmp_path / "counterexample.json"
    path.write_text(json.dumps(cocone_to_json(counterexample_cocone())))
    return str(path)


@pytest.fixture
def canonical_path(tmp_path):
    path = tmp_path / "canonical.json"
    path.write_text(json.dumps(cocone_to_json(colimit_finite(n1_chain()))))
    return str(path)


# ---------------------------------------------------------------------------
# solve

def test_solve_prints_stages(capsys):
    assert main(["solve", "D = lift(D)", "--depth", "4"]) == 0
    out = capsys.readouterr().out
    assert "stabilized_at: None" in out
    assert "canonical_form" in out


def test_solve_fun_body_to_depth_40(capsys):
    # one element a stage, while its name would grow about 12-fold a stage
    body = "D = fun(lift(fun(const(flat2),const(flat2))),D)"
    assert main(["solve", body, "--depth", "40"]) == 0
    assert "locally determined: True" in capsys.readouterr().out


def test_solve_json_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["solve", "D = lift(D)", "--depth", "4", "--json", str(p1)]) == 0
    assert main(["solve", "D = lift(D)", "--depth", "4", "--json", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    payload = json.loads(p1.read_text())
    assert [s["size"] for s in payload["stages"]] == [1, 2, 3, 4, 5]


def test_solve_csv_columns(tmp_path):
    path = tmp_path / "stages.csv"
    assert main(["solve", "D = lift(D)", "--depth", "2", "--csv", str(path)]) == 0
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "size", "canonical_form", "defect"]
    assert len(rows) == 4  # header + stages 0..2


def test_solve_syntax_error_exit_2(capsys):
    assert main(["solve", "D = lift("]) == 2
    assert "syntax error" in capsys.readouterr().err


def _nested_lifts(levels: int) -> str:
    return "lift(" * levels + "D" + ")" * levels


def test_solve_deeply_nested_equation_is_one_line(capsys):
    assert main(["solve", f"D = {_nested_lifts(600)}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: input nested too deeply (") and err.count("\n") == 1


def test_solve_env_cap_override(capsys):
    assert main(["solve", "D = lift(D)", "--depth", "5", "--max-size", "3"]) == 2
    assert "cap exceeded" in capsys.readouterr().err


def test_solve_max_size_zero_is_a_cap(capsys):
    assert main(["solve", "D = lift(D)", "--max-size", "0"]) == 2
    assert "cap exceeded" in capsys.readouterr().err


def test_cli_defaults_live_in_argparse():
    solve = build_parser().parse_args(["solve", "D = lift(D)"])
    assert solve.max_size == DEFAULT_ELEM_CAP == 512
    suite = build_parser().parse_args(["verify-theorems"])
    assert (suite.max_size, suite.max_len) == (4, 5)


def test_solve_function_space_cap_message_is_short(capsys):
    assert main(["solve", "D = lift(fun(D,const(diamond)))", "--depth", "4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cap exceeded")
    assert len(err.encode()) < 200


# the bodies of the benchmark's solve-wide workload that end at a cap at
# depth 4, with the stage and hom-set or object each one stops at
WIDE_CAP_EXITS = [
    ("prod(D,prod(const(flat2),const(diamond)))", "stage 3: object of size 1728 exceeds cap 512"),
    ("lift(fun(D,const(diamond)))", "stage 3: more than 512 monotone maps from 50 to 4 elements"),
    ("lift(prod(D,D))", "stage 4: object of size 676 exceeds cap 512"),
    ("fun(lift(D),prod(const(flat2),D))", "stage 2: more than 512 monotone maps from 6 to 15 elements"),
    ("fun(D,sum(D,const(flat2)))", "stage 2: more than 512 monotone maps from 5 to 9 elements"),
    ("fun(fun(const(flat2),const(diamond)),lift(D))", "stage 1: more than 512 monotone maps from 25 to 2 elements"),
    (
        "prod(prod(const(2-chain),D),prod(const(2-chain),const(flat2)))",
        "stage 3: object of size 1728 exceeds cap 512",
    ),
    ("sum(fun(D,D),lift(const(flat2)))", "stage 2: more than 512 monotone maps from 6 to 6 elements"),
    ("prod(fun(D,D),sum(D,const(2-chain)))", "stage 3: more than 512 monotone maps from 280 to 280 elements"),
]


@pytest.mark.parametrize("body,where", WIDE_CAP_EXITS, ids=[b for b, _ in WIDE_CAP_EXITS])
def test_solve_cap_exits_stay_where_they_are(body, where, capsys):
    assert main(["solve", f"D = {body}", "--depth", "4"]) == 2
    assert capsys.readouterr().err.splitlines()[0] == f"cap exceeded: cap exceeded at {where}"


def test_solve_product_sized_before_it_is_built(monkeypatch, capsys):
    import epsolve.finposet as finposet

    real_product = finposet.product

    def guarded(p, q):
        assert len(p) * len(q) <= DEFAULT_ELEM_CAP, "product built past the cap"
        return real_product(p, q)

    monkeypatch.setattr(finposet, "product", guarded)
    body = "D = prod(lift(lift(lift(D))),lift(lift(lift(D))))"
    assert main(["solve", body, "--depth", "3"]) == 2
    assert "object of size 132496 exceeds cap 512" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body,sizes", [("sum(D,D)", [1, 3, 7, 15]), ("lift(prod(D,D))", [1, 2, 5, 26])]
)
def test_solve_symmetric_stages_get_forms(body, sizes, tmp_path):
    path = tmp_path / "r.json"
    assert main(["solve", f"D = {body}", "--depth", "3", "--json", str(path)]) == 0
    stages = json.loads(path.read_text())["stages"]
    assert [s["size"] for s in stages] == sizes
    assert all(s["canonical_form"] and "canonical_form_cap" not in s for s in stages)


def test_solve_canonical_form_cap_leaves_a_null_form(monkeypatch, tmp_path, capsys):
    import epsolve.finposet as finposet

    # forms are cached per poset; a cached one would never meet the cap
    finposet._FORMS.clear()
    monkeypatch.setattr(finposet, "CANONICAL_ORDER_CAP", 1)
    path = tmp_path / "r.json"
    assert main(["solve", "D = prod(lift(D),lift(D))", "--depth", "2", "--json", str(path)]) == 0
    assert capsys.readouterr().err == ""
    stages = json.loads(path.read_text())["stages"]
    assert [s["size"] for s in stages] == [1, 4, 25]
    # the 4-element stage's two middle points are twins, so one leaf decides
    # it; the 25-element stage needs a second leaf
    assert [s["canonical_form"][:4] for s in stages[:2]] == ["P1;1", "IR4;"]
    assert not any("canonical_form_cap" in s for s in stages[:2])
    assert stages[2]["canonical_form"] is None
    assert stages[2]["canonical_form_cap"] == "more than 1 leaf orderings of a 25-element poset"


@pytest.mark.parametrize(
    "argv",
    [
        ["check-ld", "--cocone", "c.json", "--csv", "out.csv"],
        ["check-ld", "--cocone", "c.json", "--seed", "1"],
        ["preserve", "D", "--cocone", "c.json", "--max-len", "3"],
        ["verify-theorems", "--csv", "out.csv"],
        ["yoneda-demo", "--max-size", "3"],
        ["solve", "D = lift(D)", "--max-len", "3"],
    ],
)
def test_unread_flags_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# check-ld

def test_check_ld_counterexample_exit_1(counterexample_path, capsys):
    assert main(["check-ld", "--cocone", counterexample_path]) == 1
    out = capsys.readouterr().out
    assert "verdict: False" in out
    assert "defects: [1, 1, 1]" in out


def test_check_ld_canonical_exit_0(canonical_path, capsys):
    assert main(["check-ld", "--cocone", canonical_path]) == 0
    assert "verdict: True" in capsys.readouterr().out


def test_check_ld_missing_file_exit_2(tmp_path, capsys):
    assert main(["check-ld", "--cocone", str(tmp_path / "absent.json")]) == 2


def test_check_ld_json_report(counterexample_path, tmp_path):
    out = tmp_path / "report.json"
    main(["check-ld", "--cocone", counterexample_path, "--json", str(out)])
    payload = json.loads(out.read_text())
    assert payload["verdict"] is False


# ---------------------------------------------------------------------------
# preserve

def _apex_elems_five():
    payload = cocone_to_json(colimit_finite(n1_chain()))
    payload["apex"]["elems"] = 5
    return payload


@pytest.mark.parametrize("subcommand", [["check-ld"], ["preserve", "lift(D)"]], ids=["check-ld", "preserve"])
@pytest.mark.parametrize(
    "payload", [{"chain": 1}, [], _apex_elems_five()], ids=["chain-1", "list", "elems-5"]
)
def test_malformed_cocone_file_exit_2(subcommand, payload, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert main([*subcommand, "--cocone", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("subcommand", [["check-ld"], ["preserve", "lift(D)"]], ids=["check-ld", "preserve"])
@pytest.mark.parametrize("text", ["", "{\"chain\": ", "not json"], ids=["empty", "truncated", "text"])
def test_cocone_file_that_is_not_json_exit_2(subcommand, text, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main([*subcommand, "--cocone", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: malformed cocone (JSONDecodeError: ")
    assert err.count("\n") == 1


def _truthy_non_boolean_leq(payload):
    payload["apex"]["leq"] = [[1, "no"], [0, 1]]


def _non_string_elems(payload):
    payload["apex"]["elems"] = ["v0", 1]


def _table_entry_outside_domain(payload):
    payload["legs"][1]["l"]["table"]["v2"] = "v1"


def _list_bottom(payload):
    payload["apex"]["bottom"] = ["v0"]


def _table_value_outside_codomain(payload):
    payload["legs"][1]["l"]["table"]["v1"] = "zz"


def _list_table(payload):
    payload["legs"][1]["l"]["table"] = ["v0", "v1"]


def _non_monotone_leg(payload):
    payload["legs"][1]["l"]["table"] = {"v0": "v1", "v1": "v0"}


def _stab(value):
    def corrupt(payload):
        payload["chain"]["stab_index"] = value

    return corrupt


def _no_legs(payload):
    payload["legs"] = []


def _extra_leg(payload):
    payload["legs"].append(payload["legs"][-1])


@pytest.mark.parametrize(
    "corrupt,reason",
    [
        (_truthy_non_boolean_leq, "JSON booleans"),
        (_non_string_elems, "list of strings"),
        (_table_entry_outside_domain, "outside the domain"),
        (_list_bottom, "InvalidPoset: bottom must be a string or null"),
        (_table_value_outside_codomain, "ShapeMismatch: map table values outside the codomain"),
        (_list_table, "ShapeMismatch: map table must be a dict"),
        (_non_monotone_leg, "ShapeMismatch: deserialized map is not monotone"),
        # True and 1.0 equal 1, the chain's valid witness
        (_stab(True), "WitnessError: stab_index must be an integer or null, got True)"),
        (_stab(1.0), "WitnessError: stab_index must be an integer or null, got 1.0)"),
        (_stab("1"), "WitnessError: stab_index must be an integer or null, got '1')"),
        (_no_legs, "ShapeMismatch: 0 legs for a chain of 2 objects)"),
        (_extra_leg, "ShapeMismatch: 3 legs for a chain of 2 objects)"),
    ],
    ids=[
        "leq-truthy", "elems-int", "table-extra", "bottom-list", "table-value", "table-list",
        "leg-non-monotone", "stab-true", "stab-float", "stab-string", "legs-empty", "legs-extra",
    ],
)
def test_check_ld_rejects_invalid_fields(corrupt, reason, tmp_path, capsys):
    payload = cocone_to_json(colimit_finite(n1_chain()))
    corrupt(payload)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert main(["check-ld", "--cocone", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and reason in err
    assert err.count("\n") == 1


def test_preserve_lift_on_canonical_exit_0(canonical_path, capsys):
    assert main(["preserve", "lift(D)", "--cocone", canonical_path]) == 0
    out = capsys.readouterr().out
    assert "colimiting: True" in out
    assert "locally determined: True" in out


def test_preserve_nine_element_image_is_colimiting(canonical_path, capsys):
    # the image apex has 9 elements; no mediator search bounds is_colimiting
    assert main(["preserve", "lift(prod(D,prod(D,D)))", "--cocone", canonical_path]) == 0
    out = capsys.readouterr().out
    assert "image apex size: 9" in out
    assert "colimiting: True" in out
    assert "locally determined: True" in out


def test_preserve_identity_on_counterexample_exit_1(counterexample_path):
    assert main(["preserve", "D", "--cocone", counterexample_path]) == 1


def test_preserve_syntax_error_exit_2(counterexample_path):
    assert main(["preserve", "lift(", "--cocone", counterexample_path]) == 2


def test_preserve_deeply_nested_functor_is_one_line(tmp_path, capsys):
    # the functor is parsed before the cocone file is opened
    missing = tmp_path / "missing.json"
    assert main(["preserve", _nested_lifts(600), "--cocone", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: input nested too deeply (") and err.count("\n") == 1


def test_preserve_without_witness_is_one_line(tmp_path, capsys):
    payload = cocone_to_json(counterexample_cocone())
    payload["chain"]["stab_index"] = None
    path = tmp_path / "no_witness.json"
    path.write_text(json.dumps(payload))
    assert main(["preserve", "lift(D)", "--cocone", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: is_colimiting needs a stabilization witness\n"


# ---------------------------------------------------------------------------
# verify-theorems and yoneda-demo

def test_verify_theorems_small_run(tmp_path, capsys):
    out = tmp_path / "suite.json"
    code = main(
        ["verify-theorems", "--chains", "5", "--lub-cases", "5", "--json", str(out)]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    for name in ("P1", "P2", "P3", "P4a", "P4b", "P4c", "P5", "P6", "P7"):
        assert f"{name}: PASS" in stdout
    payload = json.loads(out.read_text())
    assert all(r["passed"] for r in payload["results"])


def test_verify_theorems_cap_hit_is_one_line(monkeypatch, capsys):
    import epsolve.opairs as opairs

    # a cached hom-set would never meet the lowered limit
    enumerate_pairs.cache_clear()
    monkeypatch.setattr(opairs, "HARD_ENUM_LIMIT", 2)
    assert main(["verify-theorems", "--chains", "5"]) == 2
    err = capsys.readouterr().err
    assert err == "cap exceeded: more than 2 EP pairs from 3 to 4 elements\n"


@pytest.mark.parametrize(
    "option,value,low",
    [("--max-len", "1", 2), ("--max-size", "0", 1), ("--chains", "-1", 0), ("--lub-cases", "-1", 0)],
)
def test_verify_theorems_rejects_out_of_range_options(option, value, low, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-theorems", option, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert err.splitlines()[-1] == (
        f"epsolve verify-theorems: error: argument {option}: must be at least {low}, got {value}"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "D = lift(D)", "--max-size", "-3"],
        ["solve", "D = lift(D)", "--depth", "-1"],
        ["preserve", "lift", "--cocone", "c.json", "--max-size", "-1"],
    ],
)
def test_solve_and_preserve_reject_negative_options(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    option, value = argv[-2:]
    assert err.splitlines()[-1] == f"epsolve {argv[0]}: error: argument {option}: must be at least 0, got {value}"


def test_verify_theorems_smallest_options_run(capsys):
    argv = ["verify-theorems", "--chains", "3", "--lub-cases", "0", "--max-size", "1", "--max-len", "2"]
    assert main(argv) == 0
    assert "P7: PASS (0 cases)" in capsys.readouterr().out


def test_yoneda_demo(capsys):
    assert main(["yoneda-demo"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["fully_faithful"] is True
