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
