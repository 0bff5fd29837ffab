import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

import qsymlie
from qsymlie import casimir as cas
from qsymlie import cli
from qsymlie import closure as cl
from qsymlie import generators as g
from qsymlie import reptheory as rt
from qsymlie.linalg import matrix_to_json

# every closure report made here keeps total_dim <= sum restricted_dim + center_dim
pytestmark = pytest.mark.usefixtures("total_within_blocks")


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def partitions(n, parts, cap=None):
    """Partitions of n into at most ``parts`` positive parts, each at most ``cap``."""
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    if parts == 0:
        return
    for first in range(min(n, cap), 0, -1):
        for rest in partitions(n - first, parts - 1, first):
            yield (first,) + rest


def content(lam):
    return sum(j - i for i, row in enumerate(lam) for j in range(row))


def hook_table(n, d):
    """{label: (irrep_dim, multiplicity, shares its content sum)} from the hook formulas.

    irrep_dim = prod (d + content) / prod hook and multiplicity = n! / prod hook,
    over the cells of the Young diagram; labels are padded with zeros to d parts.
    """
    table = {}
    for lam in partitions(n, d):
        cols = [sum(1 for row in lam if row > j) for j in range(lam[0])]
        cells = [(i, j) for i, row in enumerate(lam) for j in range(row)]
        hooks = math.prod(lam[i] - j + cols[j] - i - 1 for i, j in cells)
        dim = math.prod(d + j - i for i, j in cells) // hooks
        table[lam + (0,) * (d - len(lam))] = (dim, math.factorial(n) // hooks)
    sums = [content(lam) for lam in table]
    return {lam: (dim, mult, sums.count(content(lam)) > 1) for lam, (dim, mult) in table.items()}


class TestDecompose:
    def test_three_qutrits_text(self, capsys):
        code, out, _ = run(capsys, "decompose", "--d", "3", "--n", "3")
        assert code == 0
        assert "(3, 0, 0)    10     1" in out
        assert "(2, 1, 0)     8     2" in out
        assert "(1, 1, 1)     1     1" in out
        assert "sum k*dim = 27 = d^n: OK" in out

    def test_three_qubits_json(self, capsys):
        code, out, _ = run(capsys, "decompose", "--d", "2", "--n", "3", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["irreps"] == [
            {"iweight": [3, 0], "dim": 4, "multiplicity": 1},
            {"iweight": [2, 1], "dim": 2, "multiplicity": 2},
        ]
        assert obj["ok"] is True

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "decompose", "--d", "3", "--n", "4", "--format", "json")
        _, second, _ = run(capsys, "decompose", "--d", "3", "--n", "4", "--format", "json")
        assert first == second

    def test_large_n_same_cold_and_warm(self, capsys):
        # n = 600 is past the depth of a recursion over the entry sum
        argv = ("decompose", "--d", "2", "--n", "600", "--format", "json")
        code, cold, _ = run(capsys, *argv)
        assert code == 0
        obj = json.loads(cold)
        assert obj["checks"]["sum_mult_dim"] == 2**600 and obj["ok"] is True
        code, warm, _ = run(capsys, *argv)
        assert code == 0 and warm == cold

    def test_large_d_lists_both_labels(self, capsys):
        # d = 1200 is past the depth of a recursion over the d entries
        start = time.perf_counter()
        code, out, _ = run(capsys, "decompose", "--d", "1200", "--n", "2", "--format", "json")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        obj = json.loads(out)
        assert obj["irreps"] == [
            {"iweight": [2] + [0] * 1199, "dim": 720600, "multiplicity": 1},
            {"iweight": [1, 1] + [0] * 1198, "dim": 719400, "multiplicity": 1},
        ]
        checks = obj["checks"]
        assert checks["sum_mult_dim"] == checks["d_pow_n"] == 1200**2
        assert checks["sum_dim_sq"] == checks["commutant_dim"]
        assert checks["distinct"] == checks["center_dim"] == 2
        assert obj["ok"] is True

    def test_inexact_division_exits_3(self, capsys, monkeypatch):
        def inexact(n, d):
            raise ArithmeticError("dimension or multiplicity of (2, 1, 0) is not an integer")

        monkeypatch.setattr(rt, "cg_table", inexact)
        code, out, err = run(capsys, "decompose", "--d", "3", "--n", "3")
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_missing_row_fails_every_check_and_exits_3(self, capsys, monkeypatch, fmt):
        # (2, 1, 0) dropped: sum k*dim = 10 + 1, sum dim^2 = 100 + 1, and 2 labels
        table = rt.cg_table
        monkeypatch.setattr(rt, "cg_table", lambda n, d: table(n, d)[::2])
        code, out, _ = run(capsys, "decompose", "--d", "3", "--n", "3", "--format", fmt)
        assert code == 3
        if fmt == "json":
            obj = json.loads(out)
            assert obj["ok"] is False
            assert obj["checks"] == {"sum_mult_dim": 11, "d_pow_n": 27, "sum_dim_sq": 101,
                                     "commutant_dim": 165, "distinct": 2, "center_dim": 3}
        else:
            assert "sum k*dim = 11 = d^n: FAIL" in out
            assert "sum dim^2 = 101 = C(n+d^2-1,d^2-1) = 165: FAIL" in out
            assert "distinct irreps = 2 = f(n,d) = 3: FAIL" in out
            assert "(2, 1, 0)" not in out

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["decompose", "--d", "3"])
        assert exc.value.code == 1

    def test_invalid_d(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["decompose", "--d", "1", "--n", "3"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: qsymlie decompose")
        assert "argument --d: must be an integer >= 2, got '1'" in err


class TestCenter:
    def test_qutrits(self, capsys):
        code, out, _ = run(capsys, "center", "--d", "3", "--n", "3")
        assert code == 0
        assert "f(n=3, d=3) = 3" in out
        assert "dimension 3: OK" in out

    def test_seven_qubits(self, capsys):
        code, out, _ = run(capsys, "center", "--d", "2", "--n", "7")
        assert code == 0
        assert "f(n=7, d=2) = 4" in out

    def test_large_d(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "center", "--d", "1200", "--n", "2")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert out == "center dimension f(n=2, d=1200) = 2\n"

    def test_d4(self, capsys):
        code, out, _ = run(capsys, "center", "--d", "4", "--n", "4", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["center_dim"] == 5
        assert obj["verified"] is True

    def test_four_level_six_sites_verified(self, capsys):
        # labels (3,3,0,0) and (4,1,1,0) share a content sum; C3 tells
        # their isotypic blocks apart, and so their highest-weight counts
        code, out, _ = run(capsys, "center", "--d", "4", "--n", "6", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert (obj["center_dim"], obj["materialized_dim"], obj["verified"]) == (9, 9, True)

    def test_count_mismatch_exits_3(self, capsys, monkeypatch):
        from qsymlie import casimir

        real = casimir.highest_weight_counts

        def short(d, n):
            counts = real(d, n)
            counts[(2, 1, 0)] -= 1
            return counts

        monkeypatch.setattr(casimir, "highest_weight_counts", short)
        code, out, _ = run(capsys, "center", "--d", "3", "--n", "3")
        assert code == 3
        assert "dimension 2: FAIL" in out

    def test_large_space_skips_materialization(self, capsys):
        code, out, _ = run(capsys, "center", "--d", "3", "--n", "8", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["center_dim"] == 10
        assert "materialized_dim" not in obj


class TestSpectrum:
    def test_four_qubits(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--d", "2", "--n", "4", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        rows = {tuple(b["block_label"]): b for b in obj["blocks"]}
        assert rows[(4, 0)]["block_dim"] == 5
        assert rows[(3, 1)]["block_dim"] == 9
        assert rows[(2, 2)]["block_dim"] == 2
        assert [b["c2_cluster_index"] for b in obj["blocks"]] == [0, 1, 2]

    def test_seven_qutrits_match_hook_formulas(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--d", "3", "--n", "7", "--format", "json")
        assert code == 0
        rows = json.loads(out)["blocks"]
        want = hook_table(7, 3)
        got = {
            tuple(b["block_label"]): (b["block_dim"], b["irrep_dim"], b["multiplicity"], b["c3_refined"])
            for b in rows
        }
        assert got == {lam: (dim * mult, dim, mult, refined) for lam, (dim, mult, refined) in want.items()}
        # blocks come in ascending C2, that is ascending content sum
        sums = [content(tuple(b["block_label"])) for b in rows]
        assert sums == sorted(sums)

    @pytest.mark.parametrize("d,n", [(4, 6), (5, 6)])
    def test_c3_refines_past_three_levels(self, capsys, d, n):
        # the first content-sum ties at d = 4 and 5; C3 splits them
        code, out, _ = run(capsys, "spectrum", "--d", str(d), "--n", str(n), "--format", "json")
        assert code == 0
        got = {
            tuple(b["block_label"]): (b["block_dim"], b["irrep_dim"], b["multiplicity"], b["c3_refined"])
            for b in json.loads(out)["blocks"]
        }
        want = hook_table(n, d)
        assert got == {lam: (dim * mult, dim, mult, refined) for lam, (dim, mult, refined) in want.items()}
        assert sum(refined for *_, refined in got.values()) == 4

    def test_never_assembles_a_block_basis(self, capsys, monkeypatch):
        # the blocks keep their representatives' columns; spectrum prints
        # labels and sizes only, so it builds no basis
        seen = []
        real = cas.isotypic_blocks

        def recording(*args):
            seen.extend(real(*args))
            return seen

        monkeypatch.setattr(cas, "isotypic_blocks", recording)
        code, _, _ = run(capsys, "spectrum", "--d", "3", "--n", "6", "--format", "json")
        assert code == 0 and any(b.c3_refined for b in seen)
        assert not any("basis" in vars(b) for b in seen)
        assert seen[0].basis.shape == (729, seen[0].block_dim)
        assert "basis" in vars(seen[0])  # where a read leaves it

    def test_three_qutrits_text(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--d", "3", "--n", "3")
        assert code == 0
        assert "(3, 0, 0)" in out and "10" in out


class TestClosure:
    def test_qubit_preset(self, capsys):
        code, out, _ = run(capsys, "closure", "--preset", "qubits:n=3", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["total_dim"] == 19
        assert obj["subspace_controllable"] is True
        assert obj["saturated"] is True

    def test_lemma2_preset(self, capsys):
        code, out, _ = run(capsys, "closure", "--preset", "lemma2:2,1,(1,3)", "--format", "json")
        assert code == 0
        assert json.loads(out)["total_dim"] == 8

    def test_eight_qubits_close_at_the_bound(self, capsys):
        code, out, _ = run(capsys, "closure", "--preset", "qubits:n=8", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        # sum over spins 4, 3, 2, 1, 0 of ((2j+1)^2 - 1), plus one center direction
        assert obj["total_dim"] == 80 + 48 + 24 + 8 + 0 + 1 == 161
        assert obj["subspace_controllable"] is True and obj["center_dim"] == 1
        assert obj["path"] == "blocks"
        assert all(b["ok"] for b in obj["blocks"])

    def test_highest_weight_gate_exits_3(self, capsys, monkeypatch):
        from qsymlie import casimir

        real = casimir.isotypic_blocks
        monkeypatch.setattr(casimir, "isotypic_blocks", lambda d, n: [
            dataclasses.replace(b, irrep_dim=b.irrep_dim + 1) for b in real(d, n)
        ])
        code, out, err = run(capsys, "closure", "--preset", "qubits:n=3")
        assert (code, out) == (3, "")
        assert err == ("error: lowerings of the highest weight (2, 1) span 2 dimensions, "
                       "irrep dimension is 3\n")

    def test_unsaturated_exit_code(self, capsys):
        code, out, _ = run(
            capsys, "closure", "--preset", "qubits:n=3", "--max-dim", "5", "--format", "json"
        )
        assert code == 2
        obj = json.loads(out)
        assert obj["saturated"] is False and obj["dim_reached"] == 5

    @staticmethod
    def _u3_spec(tmp_path):
        # the 8 Gell-Mann matrices and the identity close to all of u(3)
        basis = g.gell_mann_basis(3).elements
        spec = {"d": 3, "n": 1, "hamiltonians": [matrix_to_json(e) for e in basis[1:] + basis[:1]]}
        path = tmp_path / "u3.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_ambient_dimension_is_saturated(self, capsys, tmp_path):
        spec = self._u3_spec(tmp_path)
        code, out, _ = run(capsys, "closure", "--spec", spec, "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["saturated"] is True and obj["total_dim"] == 9 == rt.ambient_commutant_dim(1, 3)
        assert obj["subspace_controllable"] is True and obj["center_dim"] == 1

    def test_cap_below_ambient_stays_unsaturated(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "closure", "--spec", self._u3_spec(tmp_path), "--max-dim", "5",
            "--format", "json",
        )
        assert code == 2
        obj = json.loads(out)
        assert obj["saturated"] is False and obj["max_dim"] == 5
        assert obj["dim_reached"] <= obj["max_dim"]

    def test_zero_cap_is_reported(self, capsys):
        code, out, _ = run(
            capsys, "closure", "--preset", "qubits:n=3", "--max-dim", "0", "--format", "json"
        )
        assert code == 2
        obj = json.loads(out)
        assert obj["max_dim"] == 0 and obj["dim_reached"] == 0

    def test_preset_and_spec_mutually_exclusive(self, capsys):
        # exactly one is required: argparse's own error, after the closure usage line
        for argv, message in [
            (["--preset", "qubits:n=2", "--spec", "x.json"],
             "argument --spec: not allowed with argument --preset"),
            (["--max-dim", "5"], "one of the arguments --preset --spec is required"),
        ]:
            with pytest.raises(SystemExit) as exc:
                cli.main(["closure", *argv])
            out, err = capsys.readouterr()
            assert exc.value.code == 1 and out == ""
            assert err.startswith("usage: qsymlie closure ")
            assert err.endswith(f"\nqsymlie closure: error: {message}\n")

    def test_unknown_preset(self, capsys):
        code, _, err = run(capsys, "closure", "--preset", "bogus")
        assert code == 1

    def test_spec_file_terms(self, capsys, tmp_path):
        # three-qubit generators as F-combinations: local x, y, z and z (x) z
        spec = {
            "d": 2,
            "n": 3,
            "hamiltonians": [
                [{"multi_index": [2, 1, 0, 0], "coeff_re": 1.0}],
                [{"multi_index": [2, 0, 1, 0], "coeff_re": 1.0}],
                [{"multi_index": [2, 0, 0, 1], "coeff_re": 1.0}],
                [{"multi_index": [1, 0, 0, 2], "coeff_re": 1.0}],
            ],
        }
        path = tmp_path / "gens.json"
        path.write_text(json.dumps(spec))
        code, out, _ = run(capsys, "closure", "--spec", str(path), "--format", "json")
        assert code == 0
        obj = json.loads(out)
        # same algebra as the qubits:n=3 preset
        assert obj["total_dim"] == 19 and obj["subspace_controllable"] is True

    def test_spec_file_matrix_form(self, capsys, tmp_path):
        sx, sy, sz = g.pauli_matrices()
        spec = {
            "d": 2,
            "n": 2,
            "hamiltonians": [
                matrix_to_json(g.collective(sx, 2)),
                matrix_to_json(g.collective(sy, 2)),
                matrix_to_json(g.collective(sz, 2)),
                matrix_to_json(np.kron(sz, sz)),
            ],
        }
        path = tmp_path / "gens.json"
        path.write_text(json.dumps(spec))
        code, out, _ = run(capsys, "closure", "--spec", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["total_dim"] == 9

    def test_spec_file_rejects_non_invariant_matrix(self, capsys, tmp_path):
        bad = np.zeros((4, 4), dtype=complex)
        bad[0, 1] = bad[1, 0] = 1.0  # Hermitian but not permutation invariant
        spec = {"d": 2, "n": 2, "hamiltonians": [matrix_to_json(bad)]}
        path = tmp_path / "gens.json"
        path.write_text(json.dumps(spec))
        code, out, err = run(capsys, "closure", "--spec", str(path))
        assert (code, out, err) == (1, "", "error: H0 does not commute with factor permutations\n")

    def test_spec_file_rejects_empty_set(self, capsys, tmp_path):
        path = tmp_path / "gens.json"
        path.write_text(json.dumps({"d": 2, "n": 2, "hamiltonians": []}))
        code, out, err = run(capsys, "closure", "--spec", str(path))
        assert (code, out, err) == (1, "", "error: need a non-empty generator set\n")

    @pytest.mark.parametrize("name", ["missing.json", "."])
    def test_unreadable_spec_file(self, capsys, tmp_path, name):
        # a missing file, and a directory, which cannot be opened as one
        path = tmp_path / name
        code, out, err = run(capsys, "closure", "--spec", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read generator spec {path}: ")
        assert err.count("\n") == 1

    def test_spec_file_keeps_skew_hermitian_matrices(self, capsys, tmp_path):
        # a skew-Hermitian matrix is the generator itself; the same set given
        # as Hermitian H becomes iH, which closes to the same output
        sx, sy, sz = g.pauli_matrices()
        hermitian = [g.collective(sx, 2), g.collective(sy, 2), g.collective(sz, 2),
                     np.kron(sz, sz)]
        skew = [1j * h for h in hermitian]
        outputs = []
        for name, mats in (("skew", skew), ("hermitian", hermitian)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(
                {"d": 2, "n": 2, "hamiltonians": [matrix_to_json(m) for m in mats]}))
            code, out, err = run(capsys, "closure", "--spec", str(path), "--format", "json")
            assert (code, err) == (0, "")
            outputs.append(out)
        gens = cli._load_generator_spec(str(tmp_path / "skew.json"))
        assert all(np.array_equal(a, m) for a, m in zip(gens.generators, skew, strict=True))
        assert outputs[0] == outputs[1] and json.loads(outputs[0])["total_dim"] == 9

    def test_spec_file_rejects_non_hermitian(self, capsys, tmp_path):
        bad = np.zeros((2, 2), dtype=complex)
        bad[0, 1] = 1.0
        spec = {"d": 2, "n": 1, "hamiltonians": [matrix_to_json(bad)]}
        path = tmp_path / "gens.json"
        path.write_text(json.dumps(spec))
        code, _, err = run(capsys, "closure", "--spec", str(path))
        assert code == 1
        assert "Hermitian" in err


class TestDegeneracy:
    def test_pair(self, capsys):
        code, out, _ = run(capsys, "degeneracy", "5", "2", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj == {"seed": [5, 2], "c2": 60, "matches": [[2, 5], [5, 2]]}

    def test_text(self, capsys):
        code, out, _ = run(capsys, "degeneracy", "0", "0")
        assert code == 0
        assert "c2(0,0) = 0" in out and "(0,0)" in out

    def test_negative_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["degeneracy", "--", "-1", "2"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: qsymlie degeneracy")
        assert "argument p0: must be an integer >= 0, got '-1'" in err


def floats_in(obj):
    if isinstance(obj, float):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from floats_in(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from floats_in(v)


class TestJsonContract:
    @pytest.mark.parametrize(
        "argv",
        [
            ("decompose", "--d", "3", "--n", "5"),
            ("center", "--d", "3", "--n", "3"),  # d^n <= 4096: verified
            ("center", "--d", "3", "--n", "8"),  # d^n > 4096: counted only
            ("spectrum", "--d", "2", "--n", "4"),
            ("closure", "--preset", "qubits:n=3"),
            ("closure", "--preset", "qubits:n=3", "--max-dim", "5"),
            ("degeneracy", "5", "2"),
        ],
    )
    def test_one_line_compact_rounded(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code in (0, 2)
        assert out.endswith("\n") and out.count("\n") == 1
        obj = json.loads(out)
        assert out == json.dumps(obj) + "\n"
        assert all(round(x, 12) == x for x in floats_in(obj))


class TestOutputFile:
    def test_out_flag(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "decompose", "--d", "2", "--n", "2", "--format", "json", "--out", str(path)
        )
        assert code == 0 and out == ""
        obj = json.loads(path.read_text())
        assert obj["checks"]["d_pow_n"] == 4

    def test_out_to_missing_directory_exits_1(self, capsys, tmp_path):
        path = tmp_path / "missing" / "report.json"
        code, out, err = run(capsys, "decompose", "--d", "2", "--n", "2", "--out", str(path))
        assert (code, out) == (1, "") and not path.exists()
        assert err.startswith("error: ") and len(err.splitlines()) == 1 and str(path) in err


# Runs CLI calls in a fresh interpreter and reports, after each step, whether
# numpy has been imported.  The last entry lists the modules that only
# ``dataclasses`` would pull in and that were loaded by ``from qsymlie import cli``.
_PROBE = textwrap.dedent("""
    import json, sys
    steps = {}
    import qsymlie
    steps["import qsymlie"] = "numpy" in sys.modules
    from qsymlie import cli
    steps["import cli"] = "numpy" in sys.modules
    heavy = [m for m in ("dataclasses", "inspect", "ast", "dis", "tokenize") if m in sys.modules]
    for argv in json.loads(sys.argv[1]):
        code = cli.main(argv)
        steps[" ".join(argv)] = ("numpy" in sys.modules) if code == 0 else f"exit {code}"
    steps["heavy modules at start-up"] = heavy
    print(json.dumps(steps))
""")


def _numpy_after(*argvs):
    env = dict(os.environ)
    src = str(Path(qsymlie.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(argvs)],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    return json.loads(proc.stdout.splitlines()[-1])


class TestStartup:
    def test_integer_commands_load_no_numpy(self):
        steps = _numpy_after(
            ["decompose", "--d", "3", "--n", "6"],
            ["decompose", "--d", "3", "--n", "6", "--format", "json"],
            ["degeneracy", "5", "2"],
            ["center", "--d", "5", "--n", "400"],
        )
        assert len(steps) == 7
        assert not any(steps.values()), steps

    def test_materialized_center_loads_numpy(self):
        steps = _numpy_after(["center", "--d", "3", "--n", "3"])
        assert steps == {"import qsymlie": False, "import cli": False,
                         "center --d 3 --n 3": True, "heavy modules at start-up": []}


class TestExitCodes:
    @pytest.mark.parametrize(
        "error,code",
        [
            (np.linalg.LinAlgError, 3),
            (cas.HighestWeightError, 3),
            (cas.UnresolvedDegeneracyError, 3),
            (cl.ClosureError, 3),
            (cl.UnsaturatedClosureError, 2),
            (ValueError, 1),
        ],
        ids=lambda v: v.__name__ if isinstance(v, type) else str(v),
    )
    def test_failure_maps_to_exit_code(self, capsys, monkeypatch, error, code):
        # raised inside isotypic_blocks, or inside lie_closure after the set
        # is validated; the failure's type alone picks the code, and no
        # command rewrites its text
        def fail(*args, **kwargs):
            raise error("injected failure")

        monkeypatch.setattr(cas, "isotypic_blocks", fail)
        monkeypatch.setattr(cl, "highest_weight_blocks", fail)
        for argv in (["spectrum", "--d", "2", "--n", "2"], ["closure", "--preset", "qubits:n=3"]):
            got, out, err = run(capsys, *argv)
            assert (got, out, err) == (code, "", "error: injected failure\n"), argv

    @pytest.mark.parametrize("command", ["closure", "spectrum"])
    def test_memory_error_exits_1(self, capsys, monkeypatch, command):
        def fail(*args, **kwargs):
            raise MemoryError("injected failure")

        monkeypatch.setattr(cl, "lie_closure", fail)
        monkeypatch.setattr(cas, "isotypic_blocks", fail)
        argv = ["closure", "--preset", "qubits:n=3"] if command == "closure" else [
            "spectrum", "--d", "2", "--n", "2"]
        got, out, err = run(capsys, *argv)
        assert (got, out, err) == (1, "", "error: injected failure\n")

    @pytest.mark.parametrize("argv", [
        ["closure", "--preset", "qubits:n=40"],
        ["spectrum", "--d", "2", "--n", "40"],
    ], ids=" ".join)
    def test_oversized_input_exits_1_with_one_line(self, capsys, argv):
        # the size guard refuses both, before any 2^40-state array
        got, out, err = run(capsys, *argv)
        assert (got, out) == (1, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("d,n", [(4, 10), (2, 16), (2, 40)])
    def test_spectrum_too_large_exits_1_at_once(self, capsys, d, n):
        # the size guard refuses from (d, n) alone, before any array
        start = time.perf_counter()
        got, out, err = run(capsys, "spectrum", "--d", str(d), "--n", str(n))
        assert time.perf_counter() - start < 1.0
        assert (got, out) == (1, "")
        assert err.startswith(f"error: d={d}, n={n} is too large") and len(err.splitlines()) == 1

    def test_closure_too_large_exits_1_at_once(self, capsys):
        # highest_weight_blocks runs the size guard first: qubits:n=16's
        # 12,870-state weight space would need a 1.23 GiB C2 matrix
        start = time.perf_counter()
        got, out, err = run(capsys, "closure", "--preset", "qubits:n=16")
        assert time.perf_counter() - start < 2.0
        assert (got, out) == (1, "")
        # the size guard's ValueError reaches the exit-code map with its own text
        assert err.startswith("error: d=2, n=16 is too large: ") and len(err.splitlines()) == 1

    def test_closure_linalg_error_exits_3(self, capsys, monkeypatch):
        # LinAlgError is a ValueError, but the exit-code map reads it as a numerical failure
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        got, out, err = run(capsys, "closure", "--preset", "qubits:n=3")
        assert (got, out, err) == (3, "", "error: SVD did not converge\n")

    @pytest.mark.parametrize("n,total", [(8, 77), (9, 102), (10, 136)])
    def test_flip_symmetric_term_spec(self, capsys, tmp_path, n, total):
        # {i sum X_i, i sum Z_i Z_j} is not controllable; its joint run
        # closes inside the blocks' algebras, so noise cannot inflate the total
        spec = {"d": 2, "n": n, "hamiltonians": [
            [{"multi_index": [n - 1, 1, 0, 0], "coeff_re": 1.0}],
            [{"multi_index": [n - 2, 0, 0, 2], "coeff_re": 1.0}]]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        got, out, err = run(capsys, "closure", "--spec", str(path), "--format", "json")
        assert (got, err) == (0, "")
        obj = json.loads(out)
        assert obj["total_dim"] == total and obj["path"] == "joint"
        assert obj["subspace_controllable"] is False

    @pytest.mark.parametrize(
        "argv",
        [
            ["closure", "--preset", "qubits:n=3", "--max-dim", "-1"],
            ["spectrum", "--d", "3", "--n", "3", "--tol", "1e-9"],  # gone, whatever the value
            ["closure", "--preset", "qubits:n=3", "--tol", "1e-9"],
            *[
                [*cmd, option, value]
                for cmd, option in [
                    (["center", "--d", "3", "--n", "3"], "--tol"),
                    (["spectrum", "--d", "3", "--n", "3"], "--tol"),
                    (["spectrum", "--d", "3", "--n", "3"], "--cluster-tol"),
                    (["closure", "--preset", "qubits:n=3"], "--tol"),
                ]
                for value in ("0", "-1", "nan")
            ],
        ],
        ids=" ".join,
    )
    def test_invalid_option_exits_1(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 1 and out == ""
        if argv[-2] == "--max-dim":
            assert "argument --max-dim: must be" in err
        else:  # every command reads its tolerances from qsymlie.tolerances
            assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err

    def test_option_inventory(self):
        size = {"--d", "--n"}
        common = {"-h", "--help", "--format", "--out"}
        want = {
            "decompose": size | common,
            "center": size | common,
            "spectrum": size | common,
            "closure": {"--preset", "--spec", "--max-dim"} | common,
            "degeneracy": common,
        }
        (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        got = {
            name: {opt for action in p._actions for opt in action.option_strings}
            for name, p in sub.choices.items()
        }
        assert got == want

    @pytest.mark.parametrize(
        "argv",
        [
            ["closure", "--preset", "qubits:n=3", "--max-dim", "-3"],
            ["decompose", "--d", "1", "--n", "3"],
            ["center", "--d", "3", "--n", "0"],
            ["spectrum", "--d", "x", "--n", "3"],
            ["degeneracy", "2", "-1"],
        ],
        ids=" ".join,
    )
    def test_range_errors_print_the_subcommand_usage(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 1 and out == ""
        assert err.startswith(f"usage: qsymlie {argv[0]} ")
        assert f"qsymlie {argv[0]}: error: argument" in err

    def test_other_errors_propagate(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise KeyError("not a CLI failure")

        monkeypatch.setattr(cas, "isotypic_blocks", fail)
        with pytest.raises(KeyError):
            cli.main(["spectrum", "--d", "2", "--n", "2"])

    @pytest.mark.parametrize(
        "spec,message",
        [
            ({"d": 2, "n": 2, "hamiltonians": [[{"coeff_re": 1.0}]]}, "KeyError: 'multi_index'"),
            ({"d": 2, "n": 2, "hamiltonians": [[5]]}, "AttributeError"),
            ({"d": 2, "n": 1, "hamiltonians": [{"dim": 2, "re": [1, 0, 0, -1]}]}, "KeyError: 'im'"),
            ({"d": 2, "n": 2, "hamiltonians": 5}, "not iterable"),
            ({"d": 2.5, "n": 2, "hamiltonians": [[]]}, "'float' object cannot be interpreted"),
            ({"d": "2", "n": 2, "hamiltonians": [[]]}, "'str' object cannot be interpreted"),
            ({"d": 2, "n": 2.0, "hamiltonians": [[]]}, "'float' object cannot be interpreted"),
            ({"d": 2, "n": 1, "hamiltonians": [{"dim": 2.5, "re": [1, 0, 0, -1], "im": [0] * 4}]},
             "TypeError: 'float' object cannot be interpreted"),
            ({"d": 2, "n": 3, "hamiltonians": [[{"multi_index": [2.9, 1.2, 0, 0]}]]},
             "generator 0: malformed (TypeError: 'float' object cannot be interpreted"),
            ({"d": 2, "n": 3, "hamiltonians": [[{"multi_index": [2, 1, 0, 0], "coeff_re": "1.5"}]]},
             "generator 0: malformed (TypeError: coeff_re must be a number, got str)"),
            ({"d": 2, "n": 3, "hamiltonians": [[{"multi_index": [2, 1, 0, 0], "coeff_im": True}]]},
             "generator 0: malformed (TypeError: coeff_im must be a number, got bool)"),
            ({"d": True, "n": 2, "hamiltonians": [[]]}, "expected an integer, got True"),
            ({"d": 2, "n": True, "hamiltonians": [[]]}, "expected an integer, got True"),
            ({"d": 2, "n": 2, "hamiltonians": [[{"multi_index": [True, True, 0, 0]}]]},
             "generator 0: malformed (TypeError: expected an integer, got True)"),
            ({"d": 2, "n": 1, "hamiltonians": [{"dim": True, "re": [1], "im": [0]}]},
             "generator 0: malformed (TypeError: expected an integer, got True)"),
            ({"d": 2, "n": 2, "hamiltonians": [
                [{"multi_index": [1, 1, 0, 0], "coeff_re": 1.0}],
                {"dim": 2, "re": [1, 0, 0, -1], "im": [0] * 4}]},
             "H1: dimension 2 != 4"),
            ({"d": 2, "n": 1,
              "hamiltonians": [{"dim": 2, "re": [1, 0, 0, math.nan], "im": [0] * 4}]},
             "H0 has non-finite entries"),
            ({"d": 2, "n": 1,
              "hamiltonians": [{"dim": 2, "re": [1, 0, 0, math.inf], "im": [0] * 4}]},
             "H0 has non-finite entries"),
            ({"d": 2, "n": 2,
              "hamiltonians": [[{"multi_index": [1, 1, 0, 0], "coeff_re": math.nan}]]},
             "H0 has non-finite entries"),
            ({"d": 2, "n": 2, "hamiltonians": [[{"multi_index": [1, 1, 0, 0], "coeff_re": 1.0}], 5]},
             "generator 1: expected a term list or a matrix object"),
            ({"d": 1, "n": 1, "hamiltonians": [{"dim": 1, "re": [1], "im": [0]}]},
             "need d >= 2 and n >= 1, got d=1, n=1"),
            ({"d": 2, "n": -1, "hamiltonians": [{"dim": 1, "re": [1], "im": [0]}]},
             "need d >= 2 and n >= 1, got d=2, n=-1"),
            ({"d": 2, "n": 0, "hamiltonians": [[{"multi_index": [0, 0, 0, 0]}]]},
             "need d >= 2 and n >= 1, got d=2, n=0"),
            ({"d": 0, "n": 2, "hamiltonians": [[{"multi_index": [2]}]]},
             "need d >= 2 and n >= 1, got d=0, n=2"),
        ],
        ids=["term-without-multi_index", "non-dict-term", "matrix-without-im",
             "hamiltonians-not-a-list", "float-d", "string-d", "float-n", "float-matrix-dim",
             "float-multi_index", "string-coefficient", "bool-coefficient", "bool-d", "bool-n",
             "bool-multi_index", "bool-matrix-dim", "matrix-dim-not-d^n", "nan-matrix-entry",
             "inf-matrix-entry", "nan-coefficient",
             "neither-terms-nor-matrix", "d-1", "negative-n", "zero-n", "zero-d"],
    )
    def test_malformed_spec_exits_1(self, capsys, tmp_path, spec, message):
        # one "error:" line, no traceback, whatever part of the spec is malformed
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, err = run(capsys, "closure", "--spec", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err


def _subparsers(ap):
    (sub,) = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


class TestParser:
    COMMANDS = ("decompose", "center", "spectrum", "closure", "degeneracy")

    @pytest.mark.parametrize("argv", [["--help"], ["-h"]], ids=" ".join)
    def test_help_lists_every_subcommand(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 0 and err == ""
        assert out.startswith("usage: qsymlie [-h] {" + ",".join(self.COMMANDS) + "} ...")
        listed = [line.split()[0] for line in out.splitlines()
                  if line.startswith("    ") and not line.startswith("     ")]
        assert listed == list(self.COMMANDS)

    def test_unknown_command_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bogus"])
        out, err = capsys.readouterr()
        assert exc.value.code == 1 and out == ""
        assert err.count("error:") == 1 and err.count("invalid choice") == 1
        assert "qsymlie: error: argument command: invalid choice: 'bogus' (choose from " in err
        assert all(f"'{name}'" in err for name in self.COMMANDS)

    def test_missing_command_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        _, err = capsys.readouterr()
        assert exc.value.code == 1
        assert err.endswith("qsymlie: error: the following arguments are required: command\n")

    @pytest.mark.parametrize("name", COMMANDS)
    def test_one_subparser_per_command(self, name):
        one = cli.build_parser(name)
        assert list(_subparsers(one)) == [name]
        every = cli.build_parser()
        assert _subparsers(one)[name].format_help() == _subparsers(every)[name].format_help()
        assert one.format_usage() == every.format_usage()

    @pytest.mark.parametrize("command", [None, "bogus", "--help"])
    def test_other_first_arguments_build_every_subparser(self, command):
        assert tuple(_subparsers(cli.build_parser(command))) == self.COMMANDS

    def test_main_builds_the_named_subparser_only(self, capsys, monkeypatch):
        built = []
        real = cli.build_parser

        def spy(command=None):
            ap = real(command)
            built.append(list(_subparsers(ap)))
            return ap

        monkeypatch.setattr(cli, "build_parser", spy)
        assert run(capsys, "degeneracy", "5", "2")[0] == 0
        assert built == [["degeneracy"]]

    def test_unrecognized_argument_prints_the_full_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["decompose", "--d", "3", "--n", "3", "extra"])
        out, err = capsys.readouterr()
        assert exc.value.code == 1 and out == ""
        assert err == ("usage: qsymlie [-h] {" + ",".join(self.COMMANDS) + "} ...\n"
                       "qsymlie: error: unrecognized arguments: extra\n")
