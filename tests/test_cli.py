import contextlib
import inspect
import io
import json
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricgap.cli import (
    MAX_POINTS,
    _build_parser,
    emit_report,
    main,
    parse_input,
    realize,
)
from metricgap import gap, negtype
from metricgap.closed_forms import gamma_cycle
from metricgap.errors import ParseError, SchemaError
from metricgap.metric import gen_random_tree


class TestParseInput:
    def test_json_matrix(self):
        doc = parse_input('{"distances": [[0, 1], [1, 0]], "p": 2}')
        assert doc.kind == "matrix"
        assert doc.p == 2.0

    def test_json_requires_object(self):
        with pytest.raises(SchemaError):
            parse_input("[1, 2]")

    def test_json_malformed(self):
        with pytest.raises(ParseError) as exc:
            parse_input('{"distances": ')
        assert "line" in str(exc.value)

    def test_unknown_key(self):
        with pytest.raises(SchemaError):
            parse_input('{"distances": [[0]], "spices": 1}')

    def test_two_main_keys(self):
        with pytest.raises(SchemaError):
            parse_input('{"distances": [[0]], "cycle": 5}')

    def test_no_main_key(self):
        with pytest.raises(SchemaError):
            parse_input('{"p": 1}')

    def test_ragged_distances(self):
        with pytest.raises(SchemaError):
            parse_input('{"distances": [[0, 1], [1]]}')

    def test_n_mismatch(self):
        with pytest.raises(SchemaError):
            parse_input('{"n": 3, "distances": [[0, 1], [1, 0]]}')

    def test_bool_is_not_a_number(self):
        with pytest.raises(SchemaError):
            parse_input('{"distances": [[0, true], [true, 0]]}')

    def test_negative_p(self):
        with pytest.raises(SchemaError):
            parse_input('{"distances": [[0, 1], [1, 0]], "p": -1}')

    def test_edges_one_based(self):
        doc = parse_input('{"edges": [[1, 2, 1.0], [2, 3, 2.0]]}')
        assert doc.kind == "edges"
        assert doc.payload["n"] == 3
        assert doc.payload["edges"][0] == (0, 1, 1.0)

    def test_edges_zero_vertex_rejected(self):
        with pytest.raises(SchemaError):
            parse_input('{"edges": [[0, 1, 1.0]]}')

    def test_edges_bad_triple(self):
        with pytest.raises(SchemaError):
            parse_input('{"edges": [[1, 2]]}')

    def test_generator_doc(self):
        doc = parse_input('{"cycle": 7}')
        assert doc.kind == "generator"
        assert doc.payload == {"name": "cycle", "spec": 7}

    def test_csv_square(self):
        doc = parse_input("0, 1\n1, 0\n")
        assert doc.kind == "matrix"
        assert doc.payload["distances"] == [[0.0, 1.0], [1.0, 0.0]]

    def test_csv_whitespace_and_comments(self):
        doc = parse_input("# a space\n0 1\n1 0\n")
        assert doc.kind == "matrix"

    def test_csv_ragged_row_reports_line(self):
        with pytest.raises(ParseError) as exc:
            parse_input("0, 1\n1\n")
        assert "row 2" in str(exc.value)

    def test_csv_non_number(self):
        with pytest.raises(ParseError):
            parse_input("0, x\n1, 0\n")

    def test_csv_not_square(self):
        with pytest.raises(ParseError):
            parse_input("0, 1\n")

    def test_csv_empty(self):
        with pytest.raises(ParseError):
            parse_input("\n\n")

    def test_auto_detection(self):
        assert parse_input('  {"cycle": 3}').kind == "generator"
        assert parse_input("0 1\n1 0").kind == "matrix"


class TestRealize:
    def test_matrix(self):
        space, family = realize(parse_input("0 1\n1 0"))
        assert space.n == 2
        assert family is None

    def test_edges_tree_family(self):
        space, family = realize(parse_input('{"edges": [[1, 2, 1.0], [1, 3, 1.0]]}'))
        assert family[0] == "tree"
        assert space.n == 3

    def test_edges_non_tree_no_family(self):
        doc = parse_input('{"edges": [[1, 2, 1.0], [2, 3, 1.0], [3, 1, 1.0]]}')
        _, family = realize(doc)
        assert family is None

    def test_generators(self):
        for text, kind, n in [
            ('{"discrete": 4}', "discrete", 4),
            ('{"cycle": 5}', "cycle", 5),
            ('{"path": 4}', "tree", 4),
            ('{"tree": {"edges": [[1, 2, 1.0]]}}', "tree", 2),
            ('{"random_tree": {"n": 6, "seed": 3}}', "tree", 6),
        ]:
            space, family = realize(parse_input(text))
            assert family[0] == kind
            assert space.n == n

    def test_path_with_weights(self):
        space, family = realize(parse_input('{"path": {"n": 3, "weights": [2.0, 3.0]}}'))
        assert space.d[0, 2] == 5.0


def gap_report(**fields):
    """A report dict with run_gap's keys, ``fields`` overriding the defaults."""
    report = {"gamma": None, "beta": None, "s_star": None, "witness": None,
              "cross_checks": {}, "diagnostics": {}}
    report.update(fields)
    return report


class TestReports:
    def test_machine_roundtrip(self):
        rep = gap_report(
            verdict="StrictNegativeType", n=3, p=1.0, gamma=0.75, beta=8.0 / 3.0,
            s_star=[1.0, -1.0, 1.0], cross_checks={"beta_opnorm": 8.0 / 3.0},
            diagnostics={"M": 2.0 / 3.0},
        )
        back = json.loads(emit_report(rep, "machine"))
        assert back == rep

    def test_machine_is_byte_deterministic(self):
        rep = gap_report(verdict="NegativeTypeNonStrict", n=4, p=1.0, gamma=0.0)
        assert emit_report(rep, "machine") == emit_report(rep, "machine")

    def test_text_mode_mentions_verdict(self):
        rep = gap_report(verdict="StrictNegativeType", n=2, p=1.0, gamma=1.0, beta=2.0)
        out = emit_report(rep, "text")
        assert "StrictNegativeType" in out
        assert "gamma" in out


def reject_constant(name):
    """parse_constant for json.loads: RFC 8259 has no NaN or Infinity."""
    raise ValueError(f"{name} is not JSON")


def scaled_cloud(n, top):
    """Distances of n standard normal points in 3-D (seed 0), scaled so that
    the largest is ``top``."""
    p = np.random.default_rng(0).standard_normal((n, 3))
    d = np.sqrt(((p[:, None] - p[None]) ** 2).sum(-1))
    return d * (top / d.max())


def run_main(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def renamed_tree_100():
    """gen_random_tree(100, seed=0)'s edges, 1-based, with its vertices
    renamed by default_rng(1).permutation(100)."""
    tree = gen_random_tree(100, seed=0)
    label = np.random.default_rng(1).permutation(100).tolist()
    return [[label[i] + 1, label[j] + 1, w] for i, j, w in tree.edges]


class TestMainGap:
    def test_cycle_seven_machine(self, capsys, monkeypatch):
        code, out, _ = run_main(
            capsys, ["gap", "-", "--report", "machine"], '{"cycle": 7}', monkeypatch
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "StrictNegativeType"
        assert payload["gamma"] == pytest.approx(gamma_cycle(7).gamma, rel=1e-12)
        assert payload["cross_checks"]["oracle_rel_err"] <= 1e-9
        assert payload["s_star"][0] == 1.0
        assert "timing" not in payload

    def test_machine_output_byte_identical_across_runs(self, capsys, monkeypatch):
        runs = []
        for _ in range(2):
            _, out, _ = run_main(
                capsys, ["gap", "-", "--report", "machine"], '{"cycle": 9}', monkeypatch
            )
            runs.append(out)
        assert runs[0] == runs[1]

    def test_timing_flag_included_only_on_request(self, capsys, monkeypatch):
        _, out, _ = run_main(
            capsys, ["gap", "-", "--report", "machine", "--timing"],
            '{"discrete": 4}', monkeypatch,
        )
        assert "timing" in json.loads(out)

    def test_text_report_with_witness_and_timing(self, capsys, monkeypatch):
        code, out, _ = run_main(
            capsys, ["gap", "-", "--witness", "--timing"], '{"cycle": 5}', monkeypatch
        )
        assert code == 0
        lines = out.splitlines()
        assert "s_star:   + - + - -" in lines
        for start in ("witness:  ", "check beta_opnorm: ", "margins: eig=", "wall_time: "):
            assert sum(line.startswith(start) for line in lines) == 1, start
        # Each number of a list at 6 significant digits, as everywhere else.
        assert "projected_spectrum: [-2.61803, -2.61803, -0.381966, -0.381966]" in lines

    def test_witness_flag(self, capsys, monkeypatch):
        code, out, _ = run_main(
            capsys, ["gap", "-", "--report", "machine", "--witness"],
            '{"cycle": 5}', monkeypatch,
        )
        payload = json.loads(out)
        assert payload["witness"] is not None
        assert len(payload["witness"]) == 5

    def test_tree_oracle_cross_check(self, capsys, monkeypatch):
        text = '{"random_tree": {"n": 8, "seed": 4}}'
        code, out, _ = run_main(
            capsys, ["gap", "-", "--report", "machine"], text, monkeypatch
        )
        payload = json.loads(out)
        assert payload["cross_checks"]["oracle_family"] == "tree"
        assert payload["cross_checks"]["oracle_rel_err"] <= 1e-9

    def test_even_cycle_reports_zero_gamma(self, capsys, monkeypatch):
        code, out, _ = run_main(
            capsys, ["gap", "-", "--report", "machine"], '{"cycle": 6}', monkeypatch
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "NegativeTypeNonStrict"
        assert payload["gamma"] == 0.0
        assert payload["beta"] is None

    def test_p_flag_overrides_document(self, capsys, monkeypatch):
        # The claw at p = 2 is not of negative type: exit 4.
        text = '{"edges": [[1, 2, 1.0], [1, 3, 1.0], [1, 4, 1.0]]}'
        code, out, _ = run_main(
            capsys, ["gap", "-", "--p", "2", "--report", "machine"], text, monkeypatch
        )
        assert code == 4
        assert json.loads(out)["verdict"] == "NotNegativeType"

    def test_document_p_used_by_default(self, capsys, monkeypatch):
        text = '{"edges": [[1, 2, 1.0], [1, 3, 1.0], [1, 4, 1.0]], "p": 2}'
        code, _, _ = run_main(capsys, ["gap", "-"], text, monkeypatch)
        assert code == 4

    def test_bnb_flag_reports_certification(self, capsys, monkeypatch):
        code, out, _ = run_main(
            capsys, ["gap", "-", "--bnb", "--max-n", "6", "--report", "machine"],
            '{"cycle": 7}', monkeypatch,
        )
        payload = json.loads(out)
        assert payload["diagnostics"]["method"] == "branch_and_bound"
        assert payload["diagnostics"]["bnb_certified"] is True
        assert payload["diagnostics"]["bnb_gap"] == 0.0
        assert 0.0 < payload["diagnostics"]["bnb_delta"] <= 1e-9 * payload["beta"]
        assert payload["diagnostics"]["bnb_pruned"] >= 0
        # Seven points: the root is solved by enumerating its completions.
        assert payload["diagnostics"]["bnb_nodes"] == payload["diagnostics"]["bnb_enumerated"] == 1
        # A root solved outright takes no eigen-solve.
        assert payload["diagnostics"]["bnb_eigen_solves"] == 0
        assert payload["diagnostics"]["bnb_tied"] == 0
        # The 7-cycle's dihedral group; a root solved outright drops nothing.
        assert payload["diagnostics"]["bnb_group_order"] == 14
        assert payload["diagnostics"]["bnb_symmetric"] == 0
        assert {key for key in payload["diagnostics"] if key.startswith("bnb_")} == {
            "bnb_certified", "bnb_nodes", "bnb_pruned", "bnb_enumerated", "bnb_eigen_solves",
            "bnb_tied", "bnb_group_order", "bnb_symmetric", "bnb_gap", "bnb_delta"}

    def test_bnb_symmetry_in_both_reports(self, capsys, monkeypatch):
        # Past _ENUM_FREE + 1 points the 21-cycle's search drops nodes that
        # a rotation or reflection maps onto kept ones.
        argv = ["gap", "-", "--bnb", "--max-n", "20"]
        _, out, _ = run_main(capsys, argv + ["--report", "machine"], '{"cycle": 21}', monkeypatch)
        diagnostics = json.loads(out)["diagnostics"]
        assert diagnostics["bnb_certified"] is True
        assert diagnostics["bnb_group_order"] == 42
        assert diagnostics["bnb_symmetric"] > 0
        _, text, _ = run_main(capsys, argv, '{"cycle": 21}', monkeypatch)
        assert "bnb_group_order: 42\n" in text
        assert f"bnb_symmetric: {diagnostics['bnb_symmetric']}\n" in text

    def test_bnb_past_depth_64(self, capsys, monkeypatch):
        # gen_random_tree(100, seed=0) with its vertices renamed, and the
        # root's colouring switched off: its search reaches depth 76 (with
        # the colouring, or under its own labels, it certifies at the root).
        monkeypatch.setattr(gap, "_sign_colouring", lambda arr, g: None)
        code, out, err = run_main(
            capsys, ["gap", "-", "--bnb", "--report", "machine"],
            json.dumps({"tree": {"edges": renamed_tree_100()}}), monkeypatch,
        )
        assert code == 0
        assert err == ""
        payload = json.loads(out)
        assert payload["diagnostics"]["bnb_certified"] is True
        assert payload["diagnostics"]["bnb_nodes"] > 0
        assert payload["cross_checks"]["oracle_rel_err"] <= 1e-9

    def test_renamed_tree_certifies_at_the_root(self, capsys, monkeypatch):
        # The same renamed tree under a zero budget: the colouring of B's
        # signs certifies it with no node expanded.
        code, out, err = run_main(
            capsys, ["gap", "-", "--bnb", "--bnb-budget", "0", "--report", "machine"],
            json.dumps({"edges": renamed_tree_100()}), monkeypatch,
        )
        assert code == 0
        assert err == ""
        payload = json.loads(out)
        assert payload["diagnostics"]["bnb_certified"] is True
        assert payload["diagnostics"]["bnb_nodes"] == 0
        assert payload["cross_checks"]["oracle_rel_err"] <= 1e-9

    def test_bnb_on_discrete_space_exits_0(self, capsys, monkeypatch):
        # Its nodes have tightly clustered top eigenvalues.
        code, out, _ = run_main(capsys, ["gap", "-", "--bnb", "--max-n", "13", "--report",
                                         "machine"], '{"discrete": 14}', monkeypatch)
        assert code == 0
        assert json.loads(out)["diagnostics"]["method"] == "branch_and_bound"

    def test_bnb_fields_only_when_bnb_runs(self, capsys, monkeypatch):
        # Inside the cutoff --bnb changes nothing.
        runs = []
        for flags in ([], ["--bnb"]):
            code, out, _ = run_main(capsys, ["gap", "-", "--report", "machine", *flags],
                                    '{"cycle": 7}', monkeypatch)
            assert code == 0
            runs.append(out)
        assert runs[0] == runs[1]
        diagnostics = json.loads(runs[1])["diagnostics"]
        assert diagnostics["method"] == "gray_scan"
        assert not [key for key in diagnostics if key.startswith("bnb_")]

    def test_large_tree_strict_under_zero_budget(self, capsys, monkeypatch):
        # Past the cutoff, with no node to expand, branch-and-bound still
        # certifies a tree at the root: its greedy incumbent reaches
        # sum |B_ij|, the closed form's beta.
        code, out, _ = run_main(
            capsys, ["gap", "-", "--bnb", "--bnb-budget", "0", "--report", "machine"],
            '{"random_tree": {"n": 500, "seed": 0}}', monkeypatch,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "StrictNegativeType"
        assert payload["cross_checks"]["oracle_rel_err"] <= 1e-9

    def test_bnb_zero_budget_uncertified(self, capsys, monkeypatch):
        code, out, _ = run_main(
            capsys,
            ["gap", "-", "--bnb", "--bnb-budget", "0", "--max-n", "7", "--report", "machine"],
            '{"random_tree": {"n": 8, "seed": 0}}', monkeypatch,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["diagnostics"]["method"] == "branch_and_bound"
        assert payload["diagnostics"]["bnb_certified"] is False

    @pytest.mark.parametrize(
        "argv",
        [["bench"], ["gap", "-", "--method", "opnorm"], ["gap", "-", "--method", "binary"],
         ["gap", "-", "--format", "json"], ["gap", "-", "--format", "csv"],
         ["gap", "-", "--tol", "1e-6"], ["gap", "-", "--method", "gray"],
         ["gap", "-", "--method", "all"]],
    )
    def test_retired_options_exit_2(self, argv):
        with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(io.StringIO()):
            main(argv)
        assert exc.value.code == 2

    def test_duplicate_points_reported(self, capsys, monkeypatch):
        text = '{"distances": [[0, 0, 1], [0, 0, 1], [1, 1, 0]]}'
        with pytest.warns(UserWarning):
            code, out, _ = run_main(
                capsys, ["gap", "-", "--report", "machine"], text, monkeypatch
            )
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 2
        assert payload["diagnostics"]["merged_points"] == [[0, 1]]

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "space.csv"
        path.write_text("0 1 1\n1 0 1\n1 1 0\n")
        code, out, _ = run_main(capsys, ["gap", str(path), "--report", "machine"])
        assert code == 0
        assert json.loads(out)["gamma"] == pytest.approx(0.75, rel=1e-12)

    def test_missing_file(self, capsys):
        code, _, err = run_main(capsys, ["gap", "/nonexistent/space.json"])
        assert code == 2
        assert "input error" in err

    def test_non_utf8_file_is_2(self, capsys, tmp_path):
        path = tmp_path / "space.json"
        path.write_bytes(b'\xff{"cycle": 5}')
        code, out, err = run_main(capsys, ["gap", str(path)])
        assert code == 2
        assert out == ""
        assert "input error" in err

    def test_non_utf8_stdin_is_2(self, capsys, monkeypatch):
        # Strict decoding, as stdin has in a UTF-8 locale other than C.UTF-8.
        stdin = io.TextIOWrapper(io.BytesIO(b'\xff{"cycle": 5}'), encoding="utf-8",
                                 errors="strict")
        monkeypatch.setattr(sys, "stdin", stdin)
        code, out, err = run_main(capsys, ["gap", "-"])
        assert code == 2
        assert out == ""
        assert "input error" in err


class TestMainExitCodes:
    def test_malformed_json_is_2(self, capsys, monkeypatch):
        code, _, err = run_main(capsys, ["gap", "-"], "{", monkeypatch)
        assert code == 2

    def test_schema_error_is_2(self, capsys, monkeypatch):
        code, _, _ = run_main(capsys, ["gap", "-"], '{"spices": 1}', monkeypatch)
        assert code == 2

    def test_triangle_violation_is_3(self, capsys, monkeypatch):
        text = '{"distances": [[0, 5, 1], [5, 0, 1], [1, 1, 0]]}'
        code, _, err = run_main(capsys, ["gap", "-"], text, monkeypatch)
        assert code == 3
        assert "metric" in err

    def test_asymmetric_is_3(self, capsys, monkeypatch):
        code, _, _ = run_main(capsys, ["gap", "-"], "0 1\n2 0", monkeypatch)
        assert code == 3

    def test_tiny_asymmetric_is_3(self, capsys, monkeypatch):
        # The symmetry slack scales with the distances, so an asymmetry of
        # a factor 3 exits 3 at 1e-20 as it does at 1.
        text = '{"distances": [[0, 1e-20], [3e-20, 0]]}'
        code, _, _ = run_main(capsys, ["gap", "-"], text, monkeypatch)
        assert code == 3

    def test_disconnected_is_3(self, capsys, monkeypatch):
        text = '{"n": 4, "edges": [[1, 2, 1.0], [3, 4, 1.0]]}'
        code, _, _ = run_main(capsys, ["gap", "-"], text, monkeypatch)
        assert code == 3

    @pytest.mark.parametrize("text, key", [
        ('{"random_tree":{"n":6,"sed":3}}', "sed"),
        ('{"path":{"n":4,"weight":[1,2,3]}}', "weight"),
        ('{"tree":{"edges":[[1,2,1],[2,3,1]],"m":7}}', "m"),
    ], ids=["random_tree", "path", "tree"])
    def test_unknown_generator_spec_key_is_2(self, capsys, monkeypatch, text, key):
        code, out, err = run_main(capsys, ["gap", "-"], text, monkeypatch)
        assert code == 2
        assert out == ""
        assert repr(key) in err

    def test_not_negative_type_is_4(self, capsys, monkeypatch):
        text = '{"edges": [[1, 2, 1.0], [1, 3, 1.0], [1, 4, 1.0]], "p": 2}'
        code, _, _ = run_main(capsys, ["gap", "-"], text, monkeypatch)
        assert code == 4

    @pytest.mark.parametrize(
        "text, expected, flags",
        [
            ('{"tree":{"edges":[["a",2,1]]}}', 2, []),
            ('{"tree":{"edges":[[1,2]]}}', 2, []),
            ('{"random_tree":{"n":5,"weight_range":"x"}}', 2, []),
            ('{"random_tree":{"n":5,"seed":-1}}', 2, []),
            ('{"path":{"n":3,"weights":["a",1]}}', 2, []),
            ('{"distances":[[0,1e200],[1e200,0]],"p":2}', 3, []),
            ('{"distances":[[0,NaN],[NaN,0]]}', 2, []),
            ('{"distances":[[0,Infinity],[Infinity,0]]}', 2, []),
            ('{"distances":[[0,1e999],[1e999,0]]}', 2, []),
            pytest.param('{"distances":[[0,1%s],[1%s,0]]}' % ("0" * 400, "0" * 400), 2, [],
                         id="distances-integer-1e400"),
            ('{"edges":[[1,2,NaN]]}', 2, []),
            ('{"edges":[[1,2,-Infinity]]}', 2, []),
            ('{"tree":{"edges":[[1,2,1e999]]}}', 2, []),
            pytest.param('{"path":{"n":3,"weights":[1,1%s]}}' % ("0" * 400), 2, [],
                         id="path-weight-integer-1e400"),
            pytest.param('{"distances":[[0,%s],[1,0]]}' % ("1" * 5000), 2, [],
                         id="distances-5000-digit-integer"),
            pytest.param("[" * 100000, 2, [], id="json-nested-100000-deep"),
            ("0 inf\ninf 0\n", 2, []),
            ("0,nan\nnan,0\n", 2, []),
            ('{"cycle":5,"p":NaN}', 2, []),
            ('{"cycle":5,"p":1e999}', 2, []),
            pytest.param('{"cycle":5}', 2, ["--p", "nan"], id="p-flag-nan"),
            pytest.param('{"cycle":5}', 2, ["--p", "inf"], id="p-flag-inf"),
            pytest.param('{"cycle":5}', 2, ["--p", "-1"], id="p-flag-negative"),
            # --tol is retired: argparse refuses the option, whatever its value.
            pytest.param('{"cycle":5}', 2, ["--tol", "nan"], id="tol-flag-nan"),
            pytest.param('{"cycle":5}', 2, ["--tol", "inf"], id="tol-flag-inf"),
            pytest.param('{"cycle":5}', 2, ["--tol", "-1"], id="tol-flag-negative"),
            pytest.param('{"cycle":5}', 2, ["--tol", "0"], id="tol-flag-zero"),
            # Sizes past MAX_POINTS, rejected before anything of that size is built.
            ('{"cycle":%d}' % 10**20, 2, []),
            ('{"path":%d}' % 10**20, 2, []),
            ('{"discrete":%d}' % 10**20, 2, []),
            ('{"n":%d,"edges":[[1,2,1]]}' % 10**11, 2, []),
            ('{"random_tree":{"n":%d}}' % 10**20, 2, []),
            ('{"path":{"n":%d}}' % (MAX_POINTS + 1), 2, []),
            ('{"tree":{"n":%d,"edges":[[1,2,1]]}}' % (MAX_POINTS + 1), 2, []),
            ('{"edges":[[1,%d,1]]}' % (MAX_POINTS + 1), 2, []),
            # Positive distances whose p-th power falls below the smallest
            # normal float.
            ('{"distances":[[0,1e-200],[1e-200,0]],"p":2}', 3, []),
            pytest.param('{"distances":[[0,1e-170,1e-170],[1e-170,0,1e-170],'
                         '[1e-170,1e-170,0]],"p":2}', 3, [], id="triangle-1e-170-p2"),
            ('{"distances":[[0,5e-324],[5e-324,0]]}', 3, []),
            ('{"distances":[[0,1e-310],[1e-310,0]]}', 3, []),
        ],
    )
    def test_bad_generator_spec_or_overflow_exits_cleanly(
        self, capsys, monkeypatch, text, expected, flags
    ):
        try:
            code, out, _ = run_main(capsys, ["gap", "-", *flags], text, monkeypatch)
        except SystemExit as exc:  # argparse refuses an unknown option
            code, out = exc.code, capsys.readouterr().out
        assert code == expected
        if "machine" in flags:
            json.loads(out, parse_constant=reject_constant)

    def test_too_large_is_5(self, capsys, monkeypatch):
        code, _, err = run_main(
            capsys, ["gap", "-", "--max-n", "5"], '{"cycle": 9}', monkeypatch
        )
        assert code == 5
        assert "too large" in err

    def test_negative_bnb_budget_is_2(self, capsys, monkeypatch):
        code, out, err = run_main(
            capsys, ["gap", "-", "--bnb", "--bnb-budget", "-5", "--max-n", "5"], '{"cycle": 9}',
            monkeypatch,
        )
        assert code == 2
        assert out == ""
        assert "input error" in err

    def test_default_bnb_budget_is_the_solver_default(self):
        assert _build_parser().parse_args(["gap", "-"]).bnb_budget == gap.BNB_BUDGET
        assert inspect.signature(gap.solve_gap).parameters["bnb_budget"].default == gap.BNB_BUDGET
        assert inspect.signature(gap.branch_and_bound).parameters["budget"].default == gap.BNB_BUDGET

    @pytest.mark.parametrize("flags", [[], ["--bnb"]], ids=["enumeration", "bnb"])
    def test_negative_max_n_is_2(self, capsys, monkeypatch, flags):
        # Not a cutoff below every input (exit 5), nor a cutoff of 0 under
        # --bnb: refused as an option, before the input is read.
        code, out, err = run_main(
            capsys, ["gap", "-", "--max-n", "-3", *flags], '{"cycle": 7}', monkeypatch
        )
        assert code == 2
        assert out == ""
        assert "input error" in err and "--max-n" in err

    def test_past_enumeration_ceiling_is_5(self, capsys, monkeypatch):
        # Refused before any sign table is built, whatever --max-n says.
        def no_tables(n):
            raise AssertionError(f"sign tables built for n = {n}")

        monkeypatch.setattr(gap, "_sign_blocks", no_tables)
        code, out, err = run_main(
            capsys, ["gap", "-", "--max-n", "100"], '{"discrete": 48}', monkeypatch
        )
        assert code == 5
        assert out == ""
        assert "ceiling" in err

    def test_bnb_past_enumeration_ceiling(self, capsys, monkeypatch):
        # --bnb takes over past the ceiling even when --max-n is above it.
        def no_tables(n):
            raise AssertionError(f"sign tables built for n = {n}")

        monkeypatch.setattr(gap, "_sign_blocks", no_tables)
        code, out, err = run_main(
            capsys,
            ["gap", "-", "--max-n", "100", "--bnb", "--bnb-budget", "3", "--report", "machine"],
            '{"discrete": 48}', monkeypatch,
        )
        assert code == 0
        assert err == ""
        assert json.loads(out)["diagnostics"]["method"] == "branch_and_bound"

    @pytest.mark.filterwarnings("error")
    def test_tiny_distances_keep_the_opnorm_check(self, capsys, monkeypatch):
        # B is about 1e160 here, so beta^2 and ||B||_F^2 overflow; nothing
        # may warn.
        side = "1e-160"
        rows = [",".join(side if i != j else "0" for j in range(3)) for i in range(3)]
        code, out, err = run_main(
            capsys, ["gap", "-", "--report", "machine"], "\n".join(rows) + "\n", monkeypatch
        )
        assert code == 0
        assert err == ""
        payload = json.loads(out)
        assert payload["cross_checks"]["beta_opnorm"] == payload["beta"] == pytest.approx(8e160 / 3)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", [
        '{"distances": [[0, 1.5e308], [1.5e308, 0]]}',
        '{"distances": [[0, 1e308, 1e308], [1e308, 0, 1e308], [1e308, 1e308, 0]]}',
    ])
    def test_huge_distances_are_3(self, capsys, monkeypatch, text):
        # B falls below the normal range; nothing may overflow or warn on
        # the way there.
        code, out, err = run_main(capsys, ["gap", "-"], text, monkeypatch)
        assert code == 3
        assert out == ""
        assert "smallest normal" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flags", [[], ["--bnb", "--max-n", "2"]])
    @pytest.mark.parametrize("text", [
        json.dumps({"distances": (1e308 * (1.0 - np.eye(6))).tolist()}),
        json.dumps({"distances": (1.5e308 * (1.0 - np.eye(3))).tolist()}),
        json.dumps({"distances": (1.79e308 * (1.0 - np.eye(3))).tolist()}),
        json.dumps({"distances": scaled_cloud(6, 1.7e308).tolist()}),
        '{"random_tree": {"n": 5, "weight_range": [1e300, 1e308]}}',
    ], ids=["six-1e308", "triangle-1.5e308", "triangle-1.79e308", "cloud-1.7e308", "tree-1e308"])
    def test_projection_past_the_float_range_is_3(self, capsys, monkeypatch, text, flags):
        # A's compression to the hyperplane F overflows.  SymMatrix refused
        # the result with a ValueError, which escaped main (exit 1).
        code, out, err = run_main(capsys, ["gap", "-", *flags], text, monkeypatch)
        assert code == 3
        assert out == ""
        assert "compression to F" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flags", [[], ["--bnb", "--max-n", "10"]])
    def test_B_past_the_float_range_is_3(self, capsys, monkeypatch, flags):
        # B is about 1e307 and sum |B_ij| overflows: every block value
        # overflowed, so the enumeration kept no maximizer and the report
        # ended in a traceback, and branch-and-bound reported an infinite
        # beta as certified.
        text = json.dumps({"path": {"n": 20, "weights": [1e-307] * 19}})
        code, out, err = run_main(capsys, ["gap", "-", *flags], text, monkeypatch)
        assert code == 3
        assert out == ""
        assert "largest float" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("weight", [3e-307, 1e-306, 1e-305])
    def test_B_near_the_top_of_the_range_enumerates(self, capsys, monkeypatch, weight):
        # sum |B_ij| = beta is 1.27e308, 3.8e307 and 3.8e306: the enumeration
        # stays inside the float range and answers, while branch-and-bound,
        # whose bounds reach 4 n sum |B_ij|, refuses with exit 3 (its delta
        # was infinite here).
        text = json.dumps({"path": {"n": 20, "weights": [weight] * 19}})
        code, out, err = run_main(capsys, ["gap", "-", "--report", "machine"], text, monkeypatch)
        assert code == 0
        assert err == ""
        report = json.loads(out, parse_constant=reject_constant)
        assert report["beta"] == pytest.approx(38 / weight, rel=1e-12)
        flags = ["--bnb", "--max-n", "10", "--bnb-budget", "100"]
        code, out, err = run_main(capsys, ["gap", "-", *flags], text, monkeypatch)
        assert code == 3
        assert out == ""
        assert "branch-and-bound" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n, weight", [(20, 1e-160), (30, 1e-304)])
    def test_bnb_delta_finite_at_extreme_scales(self, capsys, monkeypatch, n, weight):
        # At 1e-160 B is about 1e160, so the squares of the entries of a node
        # matrix overflow: the Frobenius norm in delta's eigen-solver term
        # came out inf, and the report printed "bnb_delta":Infinity.  At
        # 1e-304, just inside the float range, k^3 times that norm
        # overflowed before its factor eps was applied.
        text = json.dumps({"path": {"n": n, "weights": [weight] * (n - 1)}})
        flags = ["--bnb", "--max-n", "10", "--bnb-budget", "100", "--report", "machine"]
        code, out, err = run_main(capsys, ["gap", "-", *flags], text, monkeypatch)
        assert code == 0
        assert err == ""
        diagnostics = json.loads(out, parse_constant=reject_constant)["diagnostics"]
        assert 0.0 < diagnostics["bnb_delta"] < 1e-3 * json.loads(out)["beta"]

    @pytest.mark.filterwarnings("error")
    def test_overflowing_path_is_3(self, capsys, monkeypatch):
        # Connected, but the path from vertex 0 to vertex 2 is longer than
        # the largest float.
        text = '{"edges": [[1, 2, 1e308], [2, 3, 1e308]]}'
        code, out, err = run_main(capsys, ["gap", "-"], text, monkeypatch)
        assert code == 3
        assert out == ""
        assert "overflow" in err and "no path" not in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", [
        '{"n": 4, "edges": [[1, 2, 1.0], [3, 4, 1.0]]}',
        '{"edges": [[1, 2, 1e308], [2, 3, 1e308], [4, 5, 1.0]]}',
    ])
    def test_disconnected_reports_no_path(self, capsys, monkeypatch, text):
        code, out, err = run_main(capsys, ["gap", "-"], text, monkeypatch)
        assert code == 3
        assert out == ""
        assert "no path between vertices 0 and" in err

    @pytest.mark.filterwarnings("error")
    def test_large_triangle_gap(self, capsys, monkeypatch):
        text = '{"distances": [[0, 1e200, 1e200], [1e200, 0, 1e200], [1e200, 1e200, 0]]}'
        code, out, err = run_main(capsys, ["gap", "-", "--report", "machine"], text, monkeypatch)
        assert code == 0
        assert err == ""
        assert json.loads(out)["gamma"] == pytest.approx(0.75e200, rel=1e-12)

    def test_oracle_fault_injection_is_6(self, capsys):
        code, out, err = run_main(
            capsys, ["oracle", "--trees", "1", "--inject-fault"]
        )
        assert code == 6
        assert "MISMATCH" in out
        assert "oracle mismatch" in err


class TestMainOracleBench:
    @pytest.mark.parametrize("flags", [["--seed", "-1"], ["--trees", "-1"]])
    def test_oracle_negative_seed_or_trees_is_2(self, capsys, flags):
        code, out, err = run_main(capsys, ["oracle", *flags])
        assert code == 2
        assert out == ""
        assert "input error" in err

    def test_oracle_clean_run(self, capsys):
        code, out, _ = run_main(capsys, ["oracle", "--trees", "2"])
        assert code == 0
        assert "all checks passed" in out

    def test_oracle_machine_mode(self, capsys):
        code, out, _ = run_main(capsys, ["oracle", "--trees", "1", "--report", "machine"])
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert all(row["ok"] for row in payload["rows"])

    def test_oracle_covers_all_families(self, capsys):
        code, out, _ = run_main(capsys, ["oracle", "--trees", "1", "--report", "machine"])
        families = {row["family"] for row in json.loads(out)["rows"]}
        assert families == {"discrete", "cycle", "tree"}

    @pytest.mark.parametrize("verdict", [negtype.NEGATIVE_TYPE_NON_STRICT,
                                         negtype.NOT_NEGATIVE_TYPE])
    def test_oracle_wrong_verdict_is_a_mismatch(self, capsys, monkeypatch, verdict):
        # The 5-cycle, the one instance with n = 5 and largest distance 2,
        # read with a wrong verdict.  solve_gap raised NotStrict out of main
        # (exit 1) for both.  A NotNegativeType report has no gamma and no
        # closed form to compare.
        analyze = negtype._analyze

        def misread(a, from_metric):
            report = analyze(a, from_metric)
            if a.n == 5 and a.max_abs == 2.0:
                return negtype.NegTypeReport(verdict, report.projected_spectrum,
                                             report.margins, a)
            return report

        monkeypatch.setattr(negtype, "_analyze", misread)
        code, out, err = run_main(capsys, ["oracle", "--trees", "0", "--report", "machine"])
        assert code == 6
        assert "oracle mismatch" in err
        payload = json.loads(out, parse_constant=reject_constant)
        assert payload["ok"] is False
        bad, = [row for row in payload["rows"] if not row["ok"]]
        assert (bad["family"], bad["n"]) == ("cycle", 5)
        if verdict == negtype.NOT_NEGATIVE_TYPE:
            assert bad["gamma"] is bad["oracle"] is bad["rel_err"] is None
        else:
            assert bad["gamma"] == 0.0 and bad["rel_err"] == 1.0
        code, out, err = run_main(capsys, ["oracle", "--trees", "0"])
        assert code == 6
        assert "oracle mismatch" in err
        bad_line, = [line for line in out.splitlines() if line.startswith("BAD")]
        assert bad_line.startswith("BAD cycle    n=5 ")
        assert ("gamma=none" in bad_line) == (verdict == negtype.NOT_NEGATIVE_TYPE)
        assert out.endswith("oracle suite: MISMATCH (24 comparisons)\n")


# Documents for the fuzz test below.  Half are drawn from valid values only,
# so many reach the classifier and the gap routes; the rest mix in NaN,
# infinities, overflowing integers, booleans, strings and wrong shapes.
# Sizes and vertex ids are integers of at most 8, integers past MAX_POINTS
# (rejected before anything of that size is built) or not integers at all,
# so every space has n <= 8.
_good = st.sampled_from([1, 2, 3, 0.5, 1.5])
_not_integers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.booleans(), st.none(), st.text(max_size=3)
)
_bad = st.one_of(
    st.integers(min_value=-2, max_value=0),
    st.sampled_from([1e-300, 1e200, 1e308, 10**400]),
    _not_integers,
)


@st.composite
def _json_documents(draw):
    clean = draw(st.booleans())
    value = _good if clean else st.one_of(_good, _bad)
    size = st.integers(min_value=2, max_value=8)
    if not clean:
        size = st.one_of(st.integers(min_value=-1, max_value=8),
                         st.integers(min_value=MAX_POINTS + 1, max_value=10**30), _not_integers)
    triple = st.tuples(size, size, value).map(list)
    edges = st.lists(triple if clean else st.one_of(triple, st.lists(size, max_size=4), value),
                     max_size=8)
    n = draw(st.integers(min_value=0, max_value=8))
    if clean or draw(st.booleans()):
        # Symmetric with a zero diagonal, a metric more often than not.
        upper = {(i, j): draw(value) for i in range(n) for j in range(i + 1, n)}
        rows = [[0 if i == j else upper[min(i, j), max(i, j)] for j in range(n)]
                for i in range(n)]
    else:
        rows = [[draw(value) for _ in range(draw(st.integers(0, 8)))] for _ in range(n)]
    optional = {} if clean else {"p": value, "n": size}
    shapes = [
        st.fixed_dictionaries({"distances": st.just(rows)}, optional=optional),
        st.fixed_dictionaries({"edges": edges}, optional=optional),
        st.fixed_dictionaries({"discrete": size}),
        st.fixed_dictionaries({"cycle": size}),
        st.fixed_dictionaries({"path": st.one_of(size, st.fixed_dictionaries(
            {"n": size}, optional={"weights": st.lists(value, max_size=8)}))}),
        st.fixed_dictionaries({"tree": st.fixed_dictionaries({"edges": edges}, optional={"n": size})}),
        st.fixed_dictionaries({"random_tree": st.fixed_dictionaries(
            {"n": size}, optional={"seed": size, "weight_range": st.lists(value, max_size=3)})}),
    ]
    if not clean:
        shapes.append(st.dictionaries(
            st.sampled_from(["p", "n", "distances", "cycle", "spices"]), size, max_size=3))
    doc = draw(st.one_of(shapes))
    if clean and draw(st.booleans()):
        doc["p"] = draw(st.sampled_from([0.5, 1, 1.5, 2]))
    return json.dumps(doc)


_csv_documents = st.lists(
    st.lists(st.sampled_from(["0", "1", "2", "1.5", "-1", "inf", "nan", "1e999", "x", ""]),
             max_size=8),
    max_size=8,
).map(lambda rows: "\n".join(" ,"[len(r) % 2].join(r) for r in rows))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=st.one_of(_json_documents(), _csv_documents, st.text(max_size=12)))
def test_gap_exit_code_is_documented_for_any_document(text):
    with mock.patch.object(sys, "stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["gap", "-", "--report", "machine", "--witness"])
    assert code in (0, 2, 3, 4, 5)


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "metricgap.cli", "gap", "-", "--report", "machine"],
        input='{"discrete": 3}',
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["gamma"] == pytest.approx(0.75, rel=1e-12)
