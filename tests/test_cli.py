import re
from pathlib import Path

import numpy as np
import pytest

from qsd.cli import main
from qsd.config import ConfigError, ExperimentConfig

ROOT = Path(__file__).resolve().parent.parent

SYM2_TEXT = "2\n0.4 0.2\n0.2 0.4\n"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def finite_cfg(tmp_path, chain_path, extra=""):
    return write(
        tmp_path,
        "fv.cfg",
        f"""
[experiment]
kind = finite-verify
seed = 7

[model]
chain = {chain_path}

[params]
t0 = 1
t_max = 30
{extra}
""",
    )


def test_config_parser_basics():
    cfg = ExperimentConfig.from_text("[a]\nx = 1\ny = 2.5\nflag = true\nlist = 1 2 3\n")
    assert cfg.get_int("a", "x") == 1
    assert cfg.get_float("a", "y") == 2.5
    assert cfg.get_bool("a", "flag") is True
    assert cfg.get_floats("a", "list") == [1.0, 2.0, 3.0]
    assert cfg.get_int("a", "missing", 9) == 9


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("x = 1\n", "key before any [section]"),
        ("[a\nx = 1\n", "malformed section"),
        ("[a]\njunk line\n", "expected 'key = value'"),
        ("[a]\nx = 1\nx = 2\n", "duplicate key"),
    ],
)
def test_config_parse_errors(text, fragment):
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_text(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "getter,noun",
    [
        ("get_int", "an integer"),
        ("get_float", "a number"),
        ("get_bool", "a boolean"),
        ("get_floats", "a list of numbers"),
    ],
)
def test_config_type_errors_name_line_field_and_section(getter, noun):
    cfg = ExperimentConfig.from_text("[a]\nok = 1\nx = 1.5 oops\n", path="p.cfg")
    with pytest.raises(ConfigError) as err:
        getattr(cfg, getter)("a", "x")
    assert str(err.value) == f"p.cfg:3: field 'x' in [a] must be {noun}, got '1.5 oops'"


def test_config_missing_field_names_field():
    cfg = ExperimentConfig.from_text("[params]\nhorizon = 1\n")
    with pytest.raises(ConfigError) as err:
        cfg.get_float("params", "dt")
    assert "'dt'" in str(err.value)
    assert "[params]" in str(err.value)


def test_finite_verify_cli_passes(tmp_path, capsys):
    chain = write(tmp_path, "sym2.chain", SYM2_TEXT)
    cfg = finite_cfg(tmp_path, chain, extra="a_prime = true\nt1 = 1\nhorizon = 60\n")
    out = tmp_path / "out"
    assert main(["finite-verify", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "report.txt").exists()
    assert (out / "report.csv").exists()
    assert (out / "certificate.csv").exists()
    assert (out / "spectral.csv").exists()
    text = (out / "report.txt").read_text()
    assert "0 failed" in text
    csv = (out / "report.csv").read_text().splitlines()
    assert csv[0] == "name,relation,bound,measured,se,tolerance,passed"
    assert all(line.count(",") == 6 for line in csv[1:])


def test_relative_chain_path_resolves_against_config_dir(tmp_path, monkeypatch):
    cfg_dir = tmp_path / "cfgs"
    cfg_dir.mkdir()
    write(cfg_dir, "sym2.chain", SYM2_TEXT)
    finite_cfg(cfg_dir, "sym2.chain")
    monkeypatch.chdir(tmp_path)
    assert main(["finite-verify", "--config", "cfgs/fv.cfg", "--out", "out1"]) == 0
    bundled = ROOT / "configs" / "finite_verify_sym2.cfg"
    assert main(["finite-verify", "--config", str(bundled), "--out", "out2"]) == 0


def test_cli_rejects_unknown_kind(tmp_path, capsys):
    chain = write(tmp_path, "sym2.chain", SYM2_TEXT)
    cfg = finite_cfg(tmp_path, chain)
    assert main(["frobnicate", "--config", cfg]) == 2


def test_cli_kind_mismatch(tmp_path):
    chain = write(tmp_path, "sym2.chain", SYM2_TEXT)
    cfg = finite_cfg(tmp_path, chain)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_cli_requires_seed(tmp_path):
    chain = write(tmp_path, "sym2.chain", SYM2_TEXT)
    cfg = write(
        tmp_path,
        "noseed.cfg",
        f"[experiment]\nkind = finite-verify\n\n[model]\nchain = {chain}\n\n[params]\nt0 = 1\n",
    )
    assert main(["finite-verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    # --seed rescues it
    assert main(["finite-verify", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "5"]) == 0


@pytest.mark.parametrize("kind", ["finite-verify", "decay-report"])
@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("via", ["option", "config"])
def test_chain_kinds_reject_seed_outside_u64(tmp_path, capsys, kind, seed, via):
    chain = write(tmp_path, "sym2.chain", SYM2_TEXT)
    cfg_seed = seed if via == "config" else "5"
    cfg = write(
        tmp_path,
        "s.cfg",
        f"[experiment]\nkind = {kind}\nseed = {cfg_seed}\n\n[model]\nchain = {chain}\n\n"
        "[params]\nt0 = 1\nt_max = 20\n",
    )
    argv = [kind, "--config", cfg, "--out", str(tmp_path / "o")]
    if via == "option":
        argv += ["--seed", seed]
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_bundled_configs_run(tmp_path):
    cfgs = sorted((ROOT / "configs").glob("*.cfg"))
    assert cfgs
    for path in cfgs:
        kind = ExperimentConfig.from_file(path).get_str("experiment", "kind")
        out = tmp_path / path.stem
        assert main([kind, "--config", str(path), "--out", str(out)]) == 0, path.name
        assert (out / "report.csv").exists()


def test_estimator_without_evidence_is_a_one_line_error(tmp_path, capsys):
    text = (ROOT / "perfbench" / "configs" / "decay_report.cfg").read_text()
    text = text.replace("times = 0.1 0.2 0.3 0.4", "times = 20 21 22").replace("n = 4000", "n = 100")
    assert "times = 20 21 22" in text and "n = 100\n" in text
    cfg = write(tmp_path, "decay.cfg", text)
    assert main(["decay-report", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: pair0 ") and "no time with survivors" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_bad_chain_file_reports_line(tmp_path, capsys):
    chain = write(tmp_path, "bad.chain", "2\n0.9 0.4\n0.1 0.1\n")
    cfg = finite_cfg(tmp_path, chain)
    assert main(["finite-verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_cli_missing_dt_for_simulate(tmp_path, capsys):
    cfg = write(
        tmp_path,
        "sim.cfg",
        """
[experiment]
kind = simulate
seed = 1

[model]
domain = interval 0 1
diffusion = constant 1.0

[params]
horizon = 0.5
x0 = 0.5
""",
    )
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "'dt'" in capsys.readouterr().err


def test_simulate_cli_writes_series_and_path(tmp_path):
    cfg = write(
        tmp_path,
        "sim.cfg",
        """
[experiment]
kind = simulate
seed = 3

[model]
domain = interval 0 1
diffusion = constant 1.0

[params]
dt = 1e-3
horizon = 0.2
n = 500
x0 = 0.5
snapshots = 4
""",
    )
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    series = (out / "survival_series.csv").read_text().splitlines()
    assert series[0] == "t,estimate,se"
    assert len(series) == 5
    assert (out / "path.csv").read_text().startswith("t,x0")


def test_cli_reruns_are_byte_identical(tmp_path):
    cfg = write(
        tmp_path,
        "fv.cfg",
        """
[experiment]
kind = fleming-viot
seed = 11

[model]
domain = interval 0 3.141592653589793
diffusion = constant 1.0

[params]
dt = 2e-3
horizon = 1.0
n = 300
bins = 16
burn_in = 0.5
""",
    )
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["fleming-viot", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["fleming-viot", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("occupation.csv", "final.csv", "rebirth_series.csv", "report.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_seed_override_changes_outputs(tmp_path):
    cfg = write(
        tmp_path,
        "fv.cfg",
        """
[experiment]
kind = fleming-viot
seed = 11

[model]
domain = interval 0 3.141592653589793
diffusion = constant 1.0

[params]
dt = 2e-3
horizon = 0.5
n = 200
bins = 8
burn_in = 0.25
""",
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["fleming-viot", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["fleming-viot", "--config", cfg, "--out", str(out2), "--seed", "12"]) == 0
    assert (out1 / "occupation.csv").read_bytes() != (out2 / "occupation.csv").read_bytes()


def test_decay_report_cli_chain(tmp_path):
    chain = write(tmp_path, "sym2.chain", SYM2_TEXT)
    cfg = write(
        tmp_path,
        "decay.cfg",
        f"""
[experiment]
kind = decay-report
seed = 5

[model]
chain = {chain}

[params]
t0 = 1
t_max = 40
n_pairs = 3
""",
    )
    out = tmp_path / "o"
    assert main(["decay-report", "--config", cfg, "--out", str(out)]) == 0
    assert "gamma-emp" in (out / "report.txt").read_text()


@pytest.mark.parametrize("kind", ["finite-verify", "decay-report"])
@pytest.mark.parametrize("n_pairs", [0, -1])
def test_chain_kinds_reject_no_pairs(tmp_path, capsys, kind, n_pairs):
    # with no pairs the TV checks would pass at an empty minimum of +inf
    chain = write(tmp_path, "sym2.chain", SYM2_TEXT)
    cfg = write(
        tmp_path,
        "np.cfg",
        f"[experiment]\nkind = {kind}\nseed = 5\n\n[model]\nchain = {chain}\n\n"
        f"[params]\nt0 = 1\nt_max = 20\nn_pairs = {n_pairs}\n",
    )
    assert main([kind, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "'n_pairs'" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["finite-verify", "decay-report"])
@pytest.mark.parametrize("t_max", [0, -1])
def test_chain_kinds_reject_zero_horizon(tmp_path, capsys, kind, t_max):
    # at t_max = 0 the TV checks see only t = 0 and pass trivially; at -1 numpy
    # used to raise on an empty reduction
    chain = write(tmp_path, "sym2.chain", SYM2_TEXT)
    cfg = write(
        tmp_path,
        "tm.cfg",
        f"[experiment]\nkind = {kind}\nseed = 5\n\n[model]\nchain = {chain}\n\n"
        f"[params]\nt0 = 1\nt_max = {t_max}\nn_pairs = 2\n",
    )
    assert main([kind, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "'t_max'" in capsys.readouterr().err


@pytest.mark.parametrize("horizon", [0, -1])
def test_finite_verify_rejects_zero_a_prime_horizon(tmp_path, capsys, horizon):
    chain = write(tmp_path, "sym2.chain", SYM2_TEXT)
    cfg = write(
        tmp_path,
        "hz.cfg",
        f"[experiment]\nkind = finite-verify\nseed = 5\n\n[model]\nchain = {chain}\n\n"
        f"[params]\nt0 = 1\nt_max = 20\na_prime = true\nhorizon = {horizon}\n",
    )
    assert main(["finite-verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "'horizon'" in capsys.readouterr().err


# a 5-cycle with one chord: primitive, but Q^t has zero entries up to t = 16,
# and at t1 = 1 the (A') overlap of the pair (0, 1) is empty
CYCLE5_TEXT = "5\n0 0.9 0 0 0\n0 0 0.9 0 0\n0 0 0 0.9 0\n0 0 0 0 0.9\n0.45 0.45 0 0 0\n"


def chain_kind_cfg(tmp_path, kind, chain_text, params):
    chain = write(tmp_path, "c.chain", chain_text)
    return write(
        tmp_path,
        "c.cfg",
        f"[experiment]\nkind = {kind}\nseed = 5\n\n[model]\nchain = {chain}\n\n[params]\n{params}",
    )


@pytest.mark.parametrize("kind", ["finite-verify", "two-sided-fit", "decay-report"])
@pytest.mark.parametrize("t0", [0, -1])
def test_chain_kinds_reject_nonpositive_t0(tmp_path, capsys, kind, t0):
    cfg = chain_kind_cfg(tmp_path, kind, SYM2_TEXT, f"t0 = {t0}\nt_max = 20\nn_pairs = 2\n")
    assert main([kind, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "'t0'" in err and "must be positive" in err and err.count("\n") == 1


@pytest.mark.parametrize("t1", [0, -1])
def test_finite_verify_rejects_nonpositive_a_prime_t1(tmp_path, capsys, t1):
    cfg = chain_kind_cfg(tmp_path, "finite-verify", SYM2_TEXT, f"t0 = 1\nt_max = 20\na_prime = true\nt1 = {t1}\n")
    assert main(["finite-verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "'t1'" in err and "must be positive" in err and err.count("\n") == 1


@pytest.mark.parametrize("kind", ["finite-verify", "two-sided-fit", "decay-report"])
def test_zero_entry_in_q_t0_is_a_one_line_error(tmp_path, capsys, kind):
    cfg = chain_kind_cfg(tmp_path, kind, CYCLE5_TEXT, "t0 = 1\nt_max = 20\nn_pairs = 2\n")
    assert main([kind, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Q^1 has zero entries") and err.count("\n") == 1 and "Traceback" not in err


def test_empty_a_prime_overlap_is_a_one_line_error(tmp_path, capsys):
    cfg = chain_kind_cfg(
        tmp_path, "finite-verify", CYCLE5_TEXT, "t0 = 17\nt_max = 20\nn_pairs = 2\na_prime = true\nt1 = 1\n"
    )
    assert main(["finite-verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == "error: nu_(0,1) has zero mass\n"


def test_scale1d_cli(tmp_path):
    cfg = write(
        tmp_path,
        "s1.cfg",
        """
[experiment]
kind = scale1d
seed = 9

[params]
a = 0.5
eps1 = 1.0
n = 2000
dt = 2e-4
u_grid = 0.25
""",
    )
    out = tmp_path / "o"
    assert main(["scale1d", "--config", cfg, "--out", str(out)]) == 0
    green = (out / "green.csv").read_text().splitlines()
    assert green[0] == "a,eps1,c_eps1,s1"
    vals = [float(v) for v in green[1].split(",")]
    assert vals[2] == pytest.approx(2.0 / 3.0)


def test_boundary_return_cli(tmp_path):
    cfg = write(
        tmp_path,
        "br.cfg",
        """
[experiment]
kind = boundary-return
seed = 13

[model]
domain = interval 0 1
diffusion = constant 1.0

[params]
dt = 5e-4
eps = 0.25
t1 = 0.1
n = 4000
points = 0.05 0.1
""",
    )
    out = tmp_path / "o"
    assert main(["boundary-return", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "boundary_return.csv").exists()


def test_gradient_cli(tmp_path):
    cfg = write(
        tmp_path,
        "g.cfg",
        """
[experiment]
kind = gradient
seed = 17

[model]
domain = interval 0 1
diffusion = constant 1.0

[params]
times = 0.01 0.1
dts = 1e-4 1e-3
n = 4000
points = 0.02 0.05 0.1 0.3 0.5
""",
    )
    out = tmp_path / "o"
    assert main(["gradient", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "gradient.csv").read_text().splitlines()
    assert lines[0] == "t,lipschitz,max_survival,inconclusive"
    assert len(lines) == 3


def test_two_sided_fit_cli(tmp_path):
    chain = write(tmp_path, "sym2.chain", SYM2_TEXT)
    cfg = write(
        tmp_path,
        "fit.cfg",
        f"""
[experiment]
kind = two-sided-fit
seed = 19

[model]
chain = {chain}

[params]
t0 = 1
""",
    )
    out = tmp_path / "o"
    assert main(["two-sided-fit", "--config", cfg, "--out", str(out)]) == 0
    cert = (out / "certificate.csv").read_text().splitlines()
    assert cert[0] == "state,f,mu"
    f0 = float(cert[1].split(",")[1])
    assert f0 == pytest.approx(np.sqrt(0.32))


def test_certify_A_cli(tmp_path):
    cfg = write(
        tmp_path,
        "ca.cfg",
        """
[experiment]
kind = certify-A
seed = 23

[model]
domain = interval 0 3.141592653589793
diffusion = constant 1.0

[params]
dt = 2e-3
bins = 8
n = 3000
times = 0.5 1.0
t0_candidates = 0.5 1.0
""",
    )
    out = tmp_path / "o"
    assert main(["certify-A", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "conditionA.csv").exists()
    assert (out / "nu.csv").exists()


# one changed field of a benchmark config per case: each used to end in a
# traceback, or in a NaN survival series reported as a pass
BAD_COUNTS = [
    ("simulate", "n", "0", "must be positive"),
    ("simulate", "snapshots", "0", "must be positive"),
    ("simulate", "horizon", "0.001", "must be at least 0.002"),
    ("fleming-viot", "n", "1", "must be at least 2"),
    ("fleming-viot", "bins", "0", "must be positive"),
    ("certify-A", "n", "50", "must be at least 100"),
    ("certify-A", "bins", "0", "must be positive"),
    ("gradient", "n", "0", "must be positive"),
    ("boundary-return", "n", "50", "must be at least 100"),
    ("scale1d", "n", "0", "must be positive"),
    ("decay-report", "n", "50", "must be at least 100"),
    ("decay-report", "bins", "0", "must be positive"),
]


@pytest.mark.parametrize("kind,key,value,fragment", BAD_COUNTS)
def test_diffusion_kinds_reject_bad_counts(tmp_path, capsys, kind, key, value, fragment):
    text = (ROOT / "perfbench" / "configs" / f"{kind.replace('-', '_')}.cfg").read_text()
    text, hits = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    assert hits == 1
    cfg = write(tmp_path, "bad.cfg", text)
    assert main([kind, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"field '{key}' in [params] {fragment}, got {value}" in err and err.count("\n") == 1
    assert not (tmp_path / "o" / "report.txt").exists()


# one changed line of a benchmark config per case: (kind, key of the line,
# its replacement, the error).  Each used to end in a ValueError traceback,
# except a third window, which was ignored, and dt = 2.0, which wrote NaN
# occupation weights and exited 0
BAD_FIELDS = [
    ("scale1d", "a", "a = -0.5", "field 'a' in [params] must be at least 0.0, got -0.5"),
    ("scale1d", "eps1", "eps1 = 0", "field 'eps1' in [params] must be positive, got 0.0"),
    ("scale1d", "eps1", "eps0 = -1", "field 'eps0' in [params] must be positive, got -1.0"),
    ("scale1d", "u_grid", "u_grid = 0.125 0.5", "field 'u_grid' in [params] must be inside (0, eps1/2) = (0, 0.5), got 0.5"),
    ("scale1d", "u_grid", "u_grid = 0 0.25", "field 'u_grid' in [params] must be inside (0, eps1/2) = (0, 0.5), got 0.0"),
    ("gradient", "dts", "dts = 5e-3", "field 'dts' in [params] must be 2 numbers, one per time, got 1"),
    ("gradient", "windows", "windows = 0.25 0.25 0.25", "field 'windows' in [params] must be 2 numbers, one per time, got 3"),
    ("gradient", "points", "points = 0.0 0.0  0.3", "field 'points' in [params] must be a nonzero multiple of 2 numbers, got 3"),
    ("boundary-return", "points", "points = 0.05", "field 'points' in [params] must be a nonzero multiple of 2 numbers, got 1"),
    ("fleming-viot", "burn_in", "burn_in = 1.0", "field 'burn_in' in [params] must be at most 0.998, a step before the horizon, got 1.0"),
    ("fleming-viot", "burn_in", "burn_in = 0.998", "field 'burn_in' in [params] must be at most 0.995, the last rebirth-rate time, got 0.998"),
    ("fleming-viot", "dt", "dt = 2.0", "field 'horizon' in [params] must be at least 2.0, got 1.0"),
]
# each used to end in a traceback (ZeroDivisionError for dts = 0 0, ValueError
# for eps outside (0, inradius)) or in a misleading verdict: t1 = -0.1 reported
# c-prime = 0 and a FAIL, and negative certify-A times exited 1 with "zero
# survival from the minorizing measure"
BAD_FIELDS += [
    ("fleming-viot", "burn_in", "burn_in = -0.1", "field 'burn_in' in [params] must be at least 0.0, got -0.1"),
    ("gradient", "dts", "dts = 0 0", "field 'dts' in [params] must be positive, got 0.0"),
    ("gradient", "dts", "dts = 5e-3 -5e-3", "field 'dts' in [params] must be positive, got -0.005"),
    ("gradient", "times", "times = -0.5 1.0", "field 'times' in [params] must be at least 0.0, got -0.5"),
    ("gradient", "windows", "windows = 0.25 -0.25", "field 'windows' in [params] must be at least 0.0, got -0.25"),
    ("boundary-return", "eps", "eps = 0", "field 'eps' in [params] must be inside (0, inradius) = (0, 1), got 0.0"),
    ("boundary-return", "eps", "eps = 1.5", "field 'eps' in [params] must be inside (0, inradius) = (0, 1), got 1.5"),
    ("boundary-return", "t1", "t1 = -0.1", "field 't1' in [params] must be positive, got -0.1"),
    ("certify-A", "times", "times = -0.1 0.2 0.4", "field 'times' in [params] must be at least 0.0, got -0.1"),
    ("certify-A", "t0_candidates", "t0_candidates = 0 0.4", "field 't0_candidates' in [params] must be positive, got 0.0"),
    ("decay-report", "times", "times = -0.1 0.2", "field 'times' in [params] must be at least 0.0, got -0.1"),
]
# each used to end in a traceback: ValueError from ProbeGrid for times not
# increasing, ZeroDivisionError in gamma_hat for t0 = 0, and a bare
# ValueError from ConditionACertificate for c1 or c2 outside (0, 1]
BAD_FIELDS += [
    ("certify-A", "times", "times = 0.4 0.2 0.1", "field 'times' in [params] must be increasing, got [0.4, 0.2, 0.1]"),
    ("certify-A", "times", "times = 0.1 0.1", "field 'times' in [params] must be increasing, got [0.1, 0.1]"),
    ("decay-report", "t0", "t0 = 0", "field 't0' in [certificate] must be positive, got 0.0"),
    ("decay-report", "c1", "c1 = 0", "field 'c1' in [certificate] must be inside (0, 1], got 0.0"),
    ("decay-report", "c1", "c1 = 1.5", "field 'c1' in [certificate] must be inside (0, 1], got 1.5"),
    ("decay-report", "c2", "c2 = -0.05", "field 'c2' in [certificate] must be inside (0, 1], got -0.05"),
]
# a probe point on or outside the boundary ended in a DomainError traceback
BAD_FIELDS += [
    ("gradient", "points", "points = 0.0 0.0  0.0 1.0", "field 'points' in [params] must be inside the open domain, got [0.0, 1.0]"),
    ("boundary-return", "points", "points = 1.0 1.0  2.5 1.0", "field 'points' in [params] must be inside the open domain, got [2.5, 1.0]"),
]


@pytest.mark.parametrize("kind,key,line,message", BAD_FIELDS)
def test_diffusion_kinds_reject_bad_fields(tmp_path, capsys, kind, key, line, message):
    text = (ROOT / "perfbench" / "configs" / f"{kind.replace('-', '_')}.cfg").read_text()
    text, hits = re.subn(rf"^{key} = .*$", line, text, flags=re.M)
    assert hits == 1
    cfg = write(tmp_path, "bad.cfg", text)
    assert main([kind, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {cfg}: {message}\n"
    assert not any((tmp_path / "o").iterdir())  # no artifact written
