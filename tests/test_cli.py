"""Command-line surface: exit codes, CSV contract, reproducibility."""

import contextlib
import io
from dataclasses import replace
from fractions import Fraction as F

import pytest

from gninterp.cli import ENV_CONFIG, load_config, main, parse_instance
from gninterp.derivation import parse_certificate
from gninterp.measure import dilation_sweep
from gninterp.norms import default_grid, xnorm
from gninterp.testfn import bump, parse_testfn


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def csv_rows(text):
    lines = text.strip().splitlines()
    assert lines[0].startswith("# gninterp 0.1.0 config=")
    header = lines[1].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[2:]]


class TestParams:
    def test_solves_missing_exponent(self):
        code, out, err = run(
            ["params", "--n", "3", "--k", "2", "--l", "1",
             "--p", "2", "--r", "-3", "--theta", "1/2"]
        )
        assert code == 0
        assert err == ""
        assert "q=12 s=1/12 (p=12, L^12)" in out
        assert "valid: yes" in out

    def test_excluded_instance_exits_nonzero(self):
        code, out, _ = run(
            ["params", "--n", "2", "--k", "3", "--l", "1",
             "--p", "2", "--r", "-2", "--theta", "1/2"]
        )
        assert code == 2
        assert "valid: no" in out
        assert "violation[exclusion]" in out

    def test_unconstrained_index_takes_sq(self):
        code, out, _ = run(["params", "--n", "1", "--k", "2", "--l", "1", "--p", "2", "--theta", "1"])
        assert code == 0
        assert "r=-2 s=-1/2 (p=-2, C^{0,1/2}) (unconstrained)" in out.splitlines()

    @pytest.mark.parametrize("p", ["\u0662", "\u0663/\u0664"])
    def test_non_ascii_exponent_rejected(self, p):
        code, out, err = run(["params", "--n", "3", "--k", "2", "--l", "1", "--p", p, "--r", "-3", "--theta", "1/2"])
        assert (code, out) == (2, "")
        assert "not an exact rational" in err

    def test_underdetermined_rejected(self):
        code, _, err = run(["params", "--n", "3", "--k", "2", "--l", "1", "--p", "2"])
        assert code == 2
        assert "at least two" in err

    def test_zero_dimension_rejected(self):
        code, out, err = run(
            ["params", "--n", "0", "--k", "2", "--l", "1",
             "--p", "2", "--r", "-3", "--theta", "1/2"]
        )
        assert code == 2
        assert out == ""
        assert err == "error: dimension must be positive, got n=0\n"

    def test_infinite_exponent_is_the_sup_scale(self):
        code, out, err = run(
            ["params", "--n", "1", "--k", "2", "--l", "1", "--p", "inf", "--r", "-2", "--theta", "3/4"]
        )
        assert (code, err) == (2, "")
        assert out.splitlines()[1] == "p=inf s=0 (p=inf, L^inf)"
        assert out.splitlines()[-1] == "violation[range]: sp=0 (p = infinity) is outside the admissible exponents"

    def test_decimal_exponent_rejected(self):
        code, _, err = run(
            ["params", "--n", "3", "--k", "2", "--l", "1",
             "--p", "0.5", "--r", "-3", "--theta", "1/2"]
        )
        assert code == 2
        assert "not an exact rational: '0.5'" in err


class TestNorm:
    def test_sup_of_unit_bump(self):
        code, out, err = run(
            ["norm", "--fn", "bump(R=1.0)", "--n", "1", "--s", "0", "--order", "0"]
        )
        assert code == 0
        assert err == ""
        (row,) = csv_rows(out)
        assert row["method"] == "grid_sup"
        assert float(row["value"]) == pytest.approx(0.36787944117144233, rel=1e-15)

    def test_out_writes_the_stdout_text(self, tmp_path):
        argv = ["norm", "--fn", "bump(R=1.0)", "--n", "1", "--s", "0", "--order", "0"]
        path = tmp_path / "norm.csv"
        _, stdout_text, _ = run(argv)
        code, out, err = run(argv + ["--out", str(path)])
        assert (code, out, err) == (0, "", "")
        assert path.read_text() == stdout_text

    def test_pair_points_sets_the_pair_grid(self):
        code, out, _ = run(
            ["norm", "--fn", "bump(R=1)", "--n", "1", "--s", "-1/2", "--pair-points", "65"]
        )
        assert code == 0
        (row,) = csv_rows(out)
        fn = bump(1, R=1.0)
        grid = replace(default_grid(fn, "pair"), points_per_axis=65)
        nv = xnorm(fn, F(-1, 2), pair_grid=grid)
        assert float(row["value"]) == nv.value != xnorm(fn, F(-1, 2)).value
        assert float(row["error_estimate"]) == nv.error_estimate

    def test_decimal_scale_rejected(self):
        code, _, err = run(
            ["norm", "--fn", "bump(R=1.0)", "--n", "1", "--s", "0.25", "--order", "0"]
        )
        assert code == 2
        assert "--s" in err

    def test_malformed_descriptor_rejected(self):
        code, _, err = run(
            ["norm", "--fn", "bump", "--n", "1", "--s", "0", "--order", "0"]
        )
        assert code == 2
        assert err != ""


class TestCheck:
    def test_unbounded_case_prints_placeholders(self):
        code, out, err = run(
            ["check", "--n", "1", "--left", "-1/2", "--mid", "0",
             "--right", "1/2", "--fn", "bump(R=1.0)"]
        )
        assert code == 0
        assert err == ""
        (row,) = csv_rows(out)
        assert row["case"] == "mixed"
        assert row["bound"] == "-"
        assert row["ok"] == "-"

    def test_bounded_case_reports_verdict(self):
        code, out, _ = run(
            ["check", "--n", "1", "--left", "1/4", "--mid", "3/8",
             "--right", "1/2", "--fn", "bump(R=1.0)"]
        )
        assert code == 0
        (row,) = csv_rows(out)
        assert row["case"] == "lebesgue"
        assert row["ok"] == "True"
        assert float(row["ratio"]) <= float(row["bound"])


class TestSweep:
    def test_balanced_instance_is_flat(self):
        code, out, err = run(
            ["sweep", "--instance", "n=1,k=2,l=1,p=2,r=-2,theta=3/4",
             "--fn", "bump(R=1.0)", "--lambdas", "0.5,1,2"]
        )
        assert code == 0
        assert err == ""
        rows = csv_rows(out)
        assert [r["lambda"] for r in rows] == ["0.5", "1.0", "2.0"]
        ratios = [float(r["ratio"]) for r in rows]
        assert max(ratios) / min(ratios) <= 1.0 + 1e-9

    @pytest.mark.parametrize("points,pair_points", [(257, None), (None, 129), (257, 129)])
    def test_resolutions_apply_to_each_dilation(self, points, pair_points):
        # Each lambda is measured on grids built on its own dilated function.
        instance, lambdas = "n=1,k=2,l=1,p=2,r=-2,theta=3/4", [0.5, 1.0, 2.0]
        argv = ["sweep", "--instance", instance, "--fn", "bump(R=1.0)", "--lambdas", "0.5,1,2"]
        for flag, value in (("--points", points), ("--pair-points", pair_points)):
            argv += [] if value is None else [flag, str(value)]
        code, out, err = run(argv)
        assert (code, err) == (0, "")
        fn = parse_testfn("bump(R=1.0)", 1)
        want = []
        for lam in lambdas:
            grids = {}
            for kind, value in (("lp", points), ("pair", pair_points)):
                grid = default_grid(fn.dilate(lam), kind)
                grids[f"{kind}_grid"] = grid if value is None else replace(grid, points_per_axis=value)
            want += dilation_sweep(parse_instance(instance), fn, [lam], **grids)
        assert [(r["lambda"], r["ratio"]) for r in csv_rows(out)] == [
            (repr(lam), repr(ratio)) for lam, ratio in want
        ]

    @pytest.mark.parametrize("tol", ["-1", "0", "nan"])
    def test_non_positive_tolerance_rejected(self, tol):
        code, out, err = run(
            ["sweep", "--instance", "n=1,k=2,l=1,p=2,r=-2,theta=3/4",
             "--fn", "bump(R=1.0)", "--lambdas", "0.5,1,2", "--tolerance-ratio", tol]
        )
        assert code == 2
        assert out == ""
        assert err == f"error: tolerance_ratio must be positive, got {float(tol)}\n"

    def test_non_positive_config_tolerance_rejected(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("points = 65\ntolerance_ratio = -1\n")
        monkeypatch.setenv(ENV_CONFIG, str(cfg))
        code, out, err = run(["sweep", "--instance", "n=1,k=2,l=1,p=2,r=-2,theta=3/4"])
        assert code == 2
        assert out == ""
        assert err == f"error: {cfg}:2: tolerance_ratio must be positive, got -1.0\n"

    def test_empty_lambda_list_rejected(self):
        code, out, err = run(
            ["sweep", "--instance", "n=1,k=2,l=1,p=2,r=-2,theta=3/4", "--lambdas", ","]
        )
        assert code == 2
        assert out == ""
        assert "--lambdas" in err


class TestDerive:
    def test_output_is_reproducible(self):
        argv = ["derive", "--instance", "n=3,k=2,l=1,p=2,r=-3,theta=1/2"]
        first = run(argv)
        second = run(argv)
        assert first == second
        code, out, err = first
        assert code == 0
        assert err == ""
        assert out.splitlines()[0] == "instance n=3 k=2 l=1 sp=1/2 sq=1/12 sr=-1/3 theta=1/2"
        assert out.strip().endswith("final constant: empirical")

    def test_certificate_file_parses_back(self, tmp_path):
        cert = tmp_path / "chain.cert"
        code, out, _ = run(
            ["derive", "--instance", "n=3,k=2,l=1,p=2,r=-3,theta=1/2",
             "--out", str(cert)]
        )
        assert code == 0
        assert out.splitlines()[0] == cert.read_text().splitlines()[1]
        chain = parse_certificate(cert.read_text())
        assert len(chain.steps) == 4

    def test_zero_dimension_rejected(self):
        code, out, err = run(["derive", "--instance", "n=0,k=2,l=1,p=2,r=-1,theta=3/4"])
        assert code == 2
        assert out == ""
        assert err == "error: dimension must be positive, got n=0\n"

    def test_borderline_instance_exits_one(self):
        code, out, err = run(
            ["derive", "--instance", "n=1,k=2,l=1,p=1,r=-1,theta=3/4"]
        )
        assert code == 1
        assert out == ""
        assert "internal borderline" in err
        assert "partial:" in err


class TestVerify:
    INSTANCE = "n=1,k=3,l=2,p=-1/2,r=-1/2,theta=2/3"

    def certificate(self, tmp_path):
        cert = tmp_path / "chain.cert"
        assert run(["derive", "--instance", self.INSTANCE, "--out", str(cert)])[0] == 0
        return cert

    def test_derived_certificate_verifies(self, tmp_path):
        cert = self.certificate(tmp_path)
        code, out, err = run(["verify", str(cert)])
        assert (code, err) == (0, "")
        assert out.splitlines() == [cert.read_text().splitlines()[1], "verified: 9 steps", "final constant: 4"]

    def test_broken_chain_exits_one(self, tmp_path):
        cert = self.certificate(tmp_path)
        cert.write_text(cert.read_text().replace("exp=2/3;1/3", "exp=1/2;1/2"))
        code, out, err = run(["verify", str(cert)])
        assert (code, out) == (1, "")
        assert err.startswith("broken chain: INDUCT_DIAG")

    def test_empty_chain_exits_one(self, tmp_path):
        cert = self.certificate(tmp_path)
        cert.write_text("\n".join(cert.read_text().splitlines()[:2] + ["steps 0"]) + "\n")
        code, out, err = run(["verify", str(cert)])
        assert (code, out, err) == (1, "", "broken chain: empty chain\n")

    def test_bad_certificate_exits_two(self, tmp_path):
        cert = self.certificate(tmp_path)
        cert.write_text(cert.read_text().replace("gninterp-certificate 1", "gninterp-certificate 9"))
        code, out, err = run(["verify", str(cert)])
        assert (code, out) == (2, "")
        assert "unsupported header" in err

    @pytest.mark.parametrize(
        "old,new,message",
        [
            ("exp=2/3;1/3", "exp=2/0;1/3", "expected a step line, got 'step INDUCT_DIAG "),
            ("instance n=1", "instance n=0", "invalid instance: dimension n=0"),
            ("theta=2/3\n", "theta=2/3 bogus=7\n", "expected an instance line, got 'instance n=1 "),
            (" exp=1 constant=", " exp=1 extra=5 constant=", "expected a step line, got 'step HOLDER_IDENTITY "),
        ],
        ids=["zero-denominator", "zero-dimension", "unknown-instance-key", "unknown-step-key"],
    )
    def test_malformed_certificate_exits_two(self, tmp_path, old, new, message):
        cert = self.certificate(tmp_path)
        cert.write_text(cert.read_text().replace(old, new))
        code, out, err = run(["verify", str(cert)])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err

    def test_unreadable_file_exits_two(self, tmp_path):
        code, out, err = run(["verify", str(tmp_path / "missing.cert")])
        assert (code, out) == (2, "")
        assert err.startswith("error: ")


class TestOracle:
    @pytest.mark.parametrize("n,points", [(1, "129"), (2, "25"), (3, "9")])
    def test_holder_brute_force_agrees_bitwise(self, n, points):
        # Without --points the scan runs on holder_seminorm's default pair grid.
        code, out, err = run(
            ["oracle", "--holder", "--fn", "bump(R=1.0)", "--n", str(n),
             "--order", "0", "--p2", "1/2"]
        )
        assert code == 0
        assert err == ""
        (row,) = csv_rows(out)
        assert row["points"] == points
        assert row["equal"] == "True"
        assert row["fast"] == row["brute"]

    def test_points_flag_sets_the_holder_grid(self):
        code, out, _ = run(
            ["oracle", "--holder", "--fn", "bump(R=1.0)", "--n", "1",
             "--order", "0", "--p2", "1/2", "--points", "65"]
        )
        assert code == 0
        (row,) = csv_rows(out)
        assert row["points"] == "65"
        assert row["equal"] == "True"

    def test_lp_midpoint_within_budget(self):
        code, out, _ = run(
            ["oracle", "--lp", "--fn", "bump(R=1.0)", "--n", "1",
             "--p", "2", "--order", "1"]
        )
        assert code == 0
        (row,) = csv_rows(out)
        assert row["agree"] == "True"
        assert float(row["difference"]) <= float(row["budget"])


class TestConfig:
    def test_env_config_is_honored(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("points = 65\n")
        monkeypatch.setenv(ENV_CONFIG, str(cfg))
        code, out, _ = run(
            ["norm", "--fn", "bump(R=1.0)", "--n", "1", "--s", "1/2", "--order", "0"]
        )
        assert code == 0
        assert out.splitlines()[0] == f"# gninterp 0.1.0 config={cfg}"
        (row,) = csv_rows(out)
        grid = replace(default_grid(bump(1)), points_per_axis=65)
        assert row["value"] == repr(xnorm(bump(1), F(1, 2), lp_grid=grid).value)

    def test_flag_overrides_config(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("points = 33\n")
        monkeypatch.setenv(ENV_CONFIG, str(cfg))
        code, out, _ = run(
            ["oracle", "--lp", "--fn", "bump(R=1.0)", "--n", "1", "--p", "2", "--points", "65"]
        )
        assert code == 0
        (row,) = csv_rows(out)
        assert row["points"] == "65"

    def test_oracle_reads_config_points(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("points = 33\n")
        monkeypatch.setenv(ENV_CONFIG, str(cfg))
        code, out, _ = run(
            ["oracle", "--lp", "--fn", "bump(R=1.0)", "--n", "1", "--p", "2"]
        )
        assert code == 0
        assert out.splitlines()[0] == f"# gninterp 0.1.0 config={cfg}"
        (row,) = csv_rows(out)
        assert row["points"] == "33"

    def test_unknown_key_rejected(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        monkeypatch.setenv(ENV_CONFIG, str(cfg))
        for line in ("gridpoints = 65", "threads = 2", "seed = 7"):
            cfg.write_text(line + "\n")
            code, _, err = run(
                ["norm", "--fn", "bump(R=1.0)", "--n", "1", "--s", "1/2", "--order", "0"]
            )
            assert code == 2
            assert line.split()[0] in err

    def test_load_config_parses_comments_and_blanks(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# grid resolution\npoints = 33\n\npair_points=17\n")
        loaded = load_config(str(cfg))
        assert loaded.points == 33
        assert loaded.pair_points == 17
        assert loaded.source == str(cfg)


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["norm", "--fn", "bump(R=1.0)", "--n", "1", "--s", "1/2", "--threads", "2"], "--threads"),
        (["sweep", "--instance", "n=1,k=2,l=1,p=2,r=-2,theta=3/4", "--seminorm"], "--seminorm"),
        (["norm", "--fn", "bump(R=1.0)", "--n", "1", "--s", "1/2", "--tolerance-ratio", "5"],
         "--tolerance-ratio 5"),
        (["norm", "--fn", "bump(R=1.0)", "--n", "1", "--s", "0", "--seed", "11"], "--seed 11"),
    ],
)
def test_removed_flags_rejected(argv, flag):
    code, _, err = run(argv)
    assert code == 2
    assert f"unrecognized arguments: {flag}" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["params", "--n", "1", "--k", "2", "--l", "1", "--p", "0", "--r", "-2", "--theta", "3/4"],
         "error: exponent 0 has no index scale (use 'inf' for s=0)"),
        (["norm", "--fn", "bump(R=1)", "--n", "3", "--s", "1/2", "--order", "2", "--points", "64"],
         "error: composite Simpson needs an odd point count, got 64"),
        (["sweep", "--instance", "n=1,k=2,foo"], "error: instance entry 'foo' is not key=value"),
        (["sweep", "--instance", "n=1,k=2,l=1,x=3"], "error: unknown instance keys ['x']"),
        (["derive", "--instance", "k=2,l=1,p=2,r=-2"], "error: instance needs n, k and l (missing 'n')"),
        (["oracle", "--holder", "--fn", "bump(R=1)"], "gninterp: error: --holder requires --p2"),
        (["oracle", "--lp", "--fn", "bump(R=1)"], "gninterp: error: --lp requires --p"),
        (["oracle", "--holder", "--fn", "bump(R=1)", "--n", "1", "--p2", "3/2"],
         "error: gamma must lie in (0, 1], got 3/2"),
        (["oracle", "--lp", "--fn", "bump(R=1)", "--n", "1", "--p", "1/2"],
         "error: p must satisfy 1 <= p < inf (use sup_norm for p = inf), got 1/2"),
        (["derive", "--instance", "n=1,k=2,l=1,p=2,r=-1,theta=3/4,p=4"], "error: instance key 'p' given twice"),
        (["norm", "--fn", "bump(R=1)*amp(nan)", "--n", "1", "--s", "1/2"],
         "error: radius, center and amp must be finite, got radius=1.0, center=(0.0,), amp=nan"),
        (["check", "--fn", "bump_wave(R=1,omega=nan)", "--n", "1", "--left", "1/4", "--mid", "3/8", "--right", "1/2"],
         "error: omega must be finite, got nan"),
        (["derive", "--instance", "n=x,k=2,l=1,p=2,r=-1,theta=3/4"],
         "error: instance key 'n' must be an integer, got 'x'"),
        # Before, the two norms printed inf with exit 0 and check read ratio 0.0 as a violation (exit 1).
        (["norm", "--fn", "bump(R=1)*amp(1e308)", "--n", "1", "--s", "0", "--order", "2"],
         "error: the sup of the order-2 field is inf, not finite"),
        (["norm", "--fn", "bump(R=1)*amp(1e308)", "--n", "1", "--s", "-1/2", "--order", "1"],
         "error: the exponent-0.5 seminorm of the order-1 field is inf, not finite"),
        (["check", "--fn", "bump(R=1)*amp(1e307)", "--n", "1", "--left", "-3", "--mid", "-2", "--right", "-1"],
         "error: the sup of the order-3 field is inf, not finite"),
    ],
    ids=["zero-exponent", "even-points", "instance-entry", "instance-key", "instance-orders",
         "holder-without-p2", "lp-without-p", "oracle-gamma-as-typed", "oracle-p-as-typed",
         "instance-repeated-key", "norm-amp-nan", "check-omega-nan", "instance-integer", "norm-sup-overflow",
         "norm-seminorm-overflow", "check-sup-overflow"],
)
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_input_errors_exit_two(argv, message):
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == message


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize(
    "argv,p",
    [
        (["norm", "--fn", "bump(R=1)*amp(1e200)", "--n", "1", "--s", "1/2"], "2"),
        (["check", "--fn", "bump(R=1)*amp(1e200)", "--n", "1", "--left", "1/4", "--mid", "3/8", "--right", "1/2"],
         "2.66667"),
    ],
)
def test_overflowing_integral_exits_two(argv, p):
    # Before, both printed NaN and exited 0; check read the NaN ratio as 1.
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == f"error: the L^{p} integral of the order-0 field is inf, not finite"


def test_version_flag():
    code, out, err = run(["--version"])
    assert code == 0
    assert out == "gninterp 0.1.0\n"
    assert err == ""
