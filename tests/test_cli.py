"""Config parsing, execution paths, and exit codes."""

import dataclasses
import hashlib
import os
import re
from pathlib import Path

import numpy as np
import pytest

import smolkit.analysis as analysis
import smolkit.cli as cli
from smolkit.cli import (
    ConfigError,
    Scenario,
    execute,
    main,
    parse_config,
    read_field_csv,
    write_field_csv,
)
from smolkit.field import Grid

MINIMAL = """
name = mini
mode = homogeneous
kernel.kind = constant
kernel.c = 1.0
run.n_max = 16
run.t_final = 0.2
run.dt = 0.01
"""

PDE = """
name = pde-mini
mode = pde
kernel.kind = sum
kernel.c0 = 1.0
diffusion.kind = power_law
diffusion.r2 = 1.0
diffusion.b2 = 0.5
grid.dim = 1
grid.length = 1.0
grid.cells = 16
initial.kind = gaussian_blob
initial.amplitude = 0.5
initial.width = 0.1
run.n_max = 12
run.t_final = 0.1
run.dt = 0.005
run.output_stride = 0.05
run.record_fields = true
monitors = conservation, heat_majorant
"""


@pytest.fixture(autouse=True)
def no_child_left():
    """Every process a test starts is reaped by the time it ends."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def write(tmp_path, text, name="scenario.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def assert_names_key(capsys, p, key, detail=""):
    """stderr is one line, ``error: <p>[:<line>]: <key>: ...``, containing ``detail``."""
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: {re.escape(str(p))}(:\d+)?: {re.escape(key)}: .*\n", err), err
    assert detail in err


def sqrt_table(tmp_path, n_top):
    """A kernel CSV of alpha = sqrt(n+m) over the pairs of 1..n_top."""
    p = tmp_path / f"sqrt{n_top}.csv"
    rows = [f"{n},{m},{float(np.sqrt(n + m))!r}" for n in range(1, n_top + 1) for m in range(1, n + 1)]
    p.write_text("n,m,alpha\n" + "\n".join(rows) + "\n")
    return p


class TestParseConfig:
    def test_minimal_valid(self, tmp_path):
        s = parse_config(write(tmp_path, MINIMAL))
        assert s.name == "mini"
        assert s.mode == "homogeneous"
        assert s.n_max == 16

    def test_unknown_key_is_named(self, tmp_path):
        p = write(tmp_path, MINIMAL + "kernal.kind = constant\n")
        with pytest.raises(ConfigError, match="kernal.kind"):
            parse_config(p)

    def test_error_carries_line_number(self, tmp_path):
        p = write(tmp_path, MINIMAL + "bogus = 1\n")
        with pytest.raises(ConfigError, match=r":9:"):
            parse_config(p)

    def test_nonpositive_dt_rejected(self, tmp_path):
        p = write(tmp_path, MINIMAL.replace("run.dt = 0.01", "run.dt = 0"))
        with pytest.raises(ConfigError, match="run.dt"):
            parse_config(p)

    def test_bad_value_type_rejected(self, tmp_path):
        p = write(tmp_path, MINIMAL.replace("run.dt = 0.01", "run.dt = soon"))
        with pytest.raises(ConfigError, match="run.dt"):
            parse_config(p)

    def test_duplicate_key_rejected(self, tmp_path):
        p = write(tmp_path, MINIMAL + "name = again\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(p)

    def test_mode_required(self, tmp_path):
        p = write(tmp_path, MINIMAL.replace("mode = homogeneous", ""))
        with pytest.raises(ConfigError, match="mode"):
            parse_config(p)

    def test_comments_and_blanks_ignored(self, tmp_path):
        p = write(tmp_path, "# banner\n\n" + MINIMAL + "\n# trailing\n")
        assert parse_config(p).name == "mini"

    def test_verify_mode_rejected(self, tmp_path):
        p = write(tmp_path, PDE.replace("mode = pde", "mode = verify"))
        with pytest.raises(ConfigError, match="mode"):
            parse_config(p)
        with pytest.raises(SystemExit):
            main(["verify", str(p)])

    @pytest.mark.parametrize("key", ["run.moments", "run.pair_moments"])
    def test_repeated_moment_exponent_rejected(self, tmp_path, key):
        p = write(tmp_path, MINIMAL + f"{key} = 0,1,1,2\n")
        with pytest.raises(ConfigError, match=key):
            parse_config(p)

    def test_monitor_names_validated(self, tmp_path):
        p = write(tmp_path, MINIMAL + "monitors = conservation, wishful\n")
        with pytest.raises(ConfigError, match="wishful"):
            parse_config(p)


    @pytest.mark.parametrize("text", [MINIMAL, PDE], ids=["minimal", "pde"])
    def test_every_set_key_reaches_the_scenario(self, tmp_path, text):
        s = parse_config(write(tmp_path, text))
        for line in filter(None, map(str.strip, text.splitlines())):
            key, _, value = (part.strip() for part in line.partition("="))
            field = cli.SCHEMA[key]
            assert getattr(s, field.name) == field.metadata["parse"](value), key


# Every key whose values are numbers, lists of numbers included.
NUMERIC_KEYS = sorted(key for key, field in cli.SCHEMA.items() if re.search(r"\b(int|float)\b", field.type))

# The command and the lines set over ``PDE`` that make a run read each key;
# the keys absent here are read by the PDE run itself.
FUZZ_CONTEXTS = {
    "kernel.c": ("run", "kernel.kind = constant"),
    "kernel.a": ("run", "kernel.kind = two_exponent\nkernel.a = 0.5\nkernel.b = 0.5"),
    "kernel.b": ("run", "kernel.kind = two_exponent\nkernel.a = 0.5\nkernel.b = 0.5"),
    "kernel.range_": ("run", "kernel.kind = range_derived"),
    "diffusion.value": ("run", "diffusion.kind = constant"),
    "seed": ("run", "mode = tracer\ntracer.count = 2000\ntracer.slices = 4"),
    "tracer.": ("run", "mode = tracer\ntracer.count = 2000\ntracer.slices = 4"),
    "gronwall.": ("run", "monitors = gronwall\ngronwall.a_bound = 1e4"),
    "moment_plateau.": ("run", "monitors = moment_plateau"),
    "gelscan.": ("gelscan", "kernel.kind = product\nkernel.a = 1.0\ngelscan.n_list = 6,12"),
}


def set_over(text, lines):
    """``text`` with each ``key = value`` of ``lines`` replacing that key's line, or added."""
    keys = {line.partition("=")[0].strip() for line in lines.splitlines()}
    kept = [line for line in text.splitlines() if line.partition("=")[0].strip() not in keys]
    return "\n".join(kept + lines.splitlines()) + "\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "0"])
@pytest.mark.parametrize("key", NUMERIC_KEYS)
def test_a_numeric_value_is_named_or_steps(tmp_path, capsys, key, value):
    """Each numeric key at nan, +-inf, -1 and 0, on the pde scenario set up
    to read it: either one stderr line naming the key and no output
    directory, or a run that takes at least one step and exits 0 or 2."""
    command, lines = next((v for k, v in FUZZ_CONTEXTS.items() if key.startswith(k)), ("run", ""))
    p = write(tmp_path, set_over(set_over(PDE, lines), f"{key} = {value}"))
    out = tmp_path / "out"
    code = main([command, str(p), "--workers", "1", "--out", str(out)])
    if code == 1:
        assert_names_key(capsys, p, key)
        assert not out.exists()
    elif command == "gelscan":
        assert code in (0, 2)
        assert all(float(row.split(",")[1]) > 0 for row in (out / "gelscan.csv").read_text().splitlines()[2:])
    else:
        assert code in (0, 2)
        assert float((out / "series.csv").read_text().splitlines()[-1].split(",")[0]) > 0


class TestExecute:
    def test_pure_diffusion_scenario_exits_zero(self, tmp_path):
        text = PDE.replace("kernel.kind = sum", "kernel.kind = constant").replace(
            "kernel.c0 = 1.0", "kernel.c = 0.0"
        )
        s = parse_config(write(tmp_path, text))
        assert execute(s, out_override=str(tmp_path / "out")) == 0
        series = (tmp_path / "out" / "series.csv").read_text().splitlines()
        header = series[1].split(",")
        i_col = header.index("I")
        vals = [float(row.split(",")[i_col]) for row in series[2:]]
        assert max(abs(v - vals[0]) for v in vals) <= 1e-12 * vals[0]
        assert (tmp_path / "out" / "snapshots" / "snapshot_0000.csv").exists()

    def test_monitor_failure_exits_two(self, tmp_path):
        # an absurdly tight conservation tolerance cannot be met
        s = parse_config(write(tmp_path, MINIMAL + "conservation.tolerance = 1e-30\n"))
        code = execute(s, out_override=str(tmp_path / "out"))
        report = (tmp_path / "out" / "report.txt").read_text()
        assert code == 2
        assert "FAIL" in report

    def test_hypothesis_error_exits_one_via_main(self, tmp_path):
        """Underestimating the second-moment bound is a hypothesis error
        (exit 1), not a monitor failure (exit 2)."""
        text = PDE.replace("monitors = conservation, heat_majorant",
                           "monitors = gronwall\ngronwall.a_bound = 1e-9")
        p = write(tmp_path, text)
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 1

    def test_gronwall_bound_below_a_later_sup_exits_one_before_any_file(self, tmp_path, capsys):
        """A bound above the second moment at t = 0 passes ``_validate``, but
        the sum kernel grows it to 2.23 by t = 0.2: the error names the file,
        the key and the observed sup, and no series or snapshot is written."""
        text = (
            "name = late-sup\nmode = pde\nkernel.kind = sum\ngrid.cells = 16\ninitial.kind = monodisperse\n"
            "initial.amplitude = 1\nrun.n_max = 16\nrun.t_final = 0.2\nrun.record_fields = true\n"
            "monitors = gronwall\ngronwall.a_bound = 1.01\n"
        )
        p = write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", str(p), "--workers", "1", "--out", str(out)]) == 1
        assert_names_key(capsys, p, "gronwall.a_bound", "observed sup 2.22768")
        assert list(out.iterdir()) == []

    def test_large_gronwall_bound_passes(self, tmp_path):
        """A second-moment bound far above the observed sup is valid: the
        envelope exp(4 c0 A T) = e^8000 passes vacuously and the run exits 0."""
        text = PDE.replace("monitors = conservation, heat_majorant",
                           "monitors = gronwall\ngronwall.a_bound = 1e4")
        p = write(tmp_path, text)
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 0
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "PASS gronwall_stability" in report

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_flag_is_validated(self, tmp_path, capsys, workers):
        """``--workers`` meets the same check as ``workers`` in the file."""
        p = write(tmp_path, MINIMAL)
        assert main(["run", str(p), "--workers", workers, "--out", str(tmp_path / "out")]) == 1
        assert f"error: {p}: workers: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "line,named",
        [("run.moments = 200", "a=200"), ("run.pair_moments = 150", "a=150"),
         ("run.moments = 0,1,-1", "run.moments: each value must be finite and >= 0, got -1"),
         ("run.pair_moments = -2", "run.pair_moments: each value must be finite and >= 0, got -2"),
         ("run.moments = 1,nan", "run.moments: each value must be finite and >= 0, got nan"),
         ("run.moments = inf", "run.moments: each value must be finite and >= 0, got inf")],
    )
    def test_bad_moment_exponent_exits_one_before_the_run(self, tmp_path, capsys, line, named):
        """A weight n^a that overflows float64 at n_max = 1000, or an exponent
        that is not >= 0, is one line on stderr and exit 1, not a nan series;
        the latter names its key."""
        p = write(tmp_path, MINIMAL.replace("run.n_max = 16", "run.n_max = 1000") + line + "\n")
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and named in err
        assert not (tmp_path / "out" / "series.csv").exists()

    @pytest.mark.parametrize("times", ["0.3", "0.25,0.75", "-0.125", "nan"])
    def test_tracer_times_off_the_slice_boundaries_exit_one_before_the_run(self, tmp_path, capsys, times):
        """Histogram times must be slice boundaries in [0, run.t_final], here
        multiples of 0.5 / 4; the error names the key and no file is written."""
        text = TestDeterminism.TRACER.replace("run.t_final = 0.1", "run.t_final = 0.5").replace("tracer.slices = 8", "tracer.slices = 4")
        p = write(tmp_path, text + f"tracer.times = {times}\n")
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 1
        assert_names_key(capsys, p, "tracer.times")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key,value",
        [("initial.width", v) for v in ("0", "-0.1", "nan", "inf")]
        + [(key, v) for key in ("conservation.tolerance", "heat_majorant.tolerance", "moment_plateau.tolerance",
                                "tracer.tv_tolerance", "tracer.z_tolerance") for v in ("-1", "nan", "inf")]
        + [("gronwall.a_bound", v) for v in ("nan", "inf", "-1")],
    )
    def test_bad_width_or_tolerance_exits_one_before_any_file(self, tmp_path, capsys, key, value):
        """A zero width would run an empty field through every gate, a negative
        one would run as its absolute value, a gate with a negative or nan
        tolerance can never pass and one with an infinite tolerance can never
        fail, and a nan or infinite Gronwall bound passes vacuously: each is
        an error naming its key and line."""
        text = "".join(line + "\n" for line in PDE.splitlines() if not line.startswith(f"{key} ="))
        p = write(tmp_path, text + f"{key} = {value}\n")
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 1
        assert_names_key(capsys, p, key, f"{p}:{len(text.splitlines()) + 1}: {key}: must be ")
        assert not (tmp_path / "out").exists()

    def test_tracer_times_on_the_slice_boundaries_are_accepted(self, tmp_path):
        text = TestDeterminism.TRACER.replace("run.t_final = 0.1", "run.t_final = 0.5").replace("tracer.slices = 8", "tracer.slices = 4")
        assert parse_config(write(tmp_path, text + "tracer.times = 0,0.125,0.5\n")).tracer_times == (0.0, 0.125, 0.5)

    def test_missing_config_exits_one(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 1
        assert "error" in capsys.readouterr().err

    def test_gelscan_writes_table(self, tmp_path):
        text = """
name = scan
mode = gelscan
kernel.kind = product
kernel.a = 1.0
run.n_max = 32
run.t_final = 0.5
run.dt = 0.01
gelscan.n_list = 16,32
"""
        s = parse_config(write(tmp_path, text))
        assert execute(s, out_override=str(tmp_path / "out")) == 0
        table = (tmp_path / "out" / "gelscan.csv").read_text().splitlines()
        assert table[1] == "n_max,mass_ratio,gel"
        assert len(table) == 4

    def test_gelscan_zero_data_takes_the_fallback_step(self, tmp_path, capsys):
        """No reaction: no stability limit sets the step, so it is t_final / 100."""
        p = write(tmp_path, MINIMAL + "initial.amplitude = 0\n")
        s = dataclasses.replace(parse_config(p), mode="gelscan")
        assert cli.build_run(s, cli.build_kernel(s))[2].dt == 0.2 / 100
        assert main(["gelscan", str(p), "--out", str(tmp_path / "out")]) == 0
        assert "error" not in capsys.readouterr().err
        table = (tmp_path / "out" / "gelscan.csv").read_text().splitlines()
        assert table[2:] == ["64,1.0,0.0", "128,1.0,0.0", "256,1.0,0.0"]

    @pytest.mark.parametrize(
        "line, key",
        [
            ("gelscan.n_list = 32,16", "gelscan.n_list"),
            ("gelscan.n_list = 0,8", "gelscan.n_list"),
            ("gelscan.dt = -0.1", "gelscan.dt"),
            ("gelscan.n_list = 8", "gelscan.n_list"),
            ("gelscan.n_list = 4,8\ninitial.species = 8", "initial.species"),
        ],
    )
    def test_gelscan_command_validates_gelscan_keys(self, tmp_path, capsys, line, key):
        """``smolkit gelscan`` on a config whose own mode is homogeneous
        still checks the gelscan keys, and the error names file and key."""
        p = write(tmp_path, MINIMAL + line + "\n")
        assert main(["gelscan", str(p), "--out", str(tmp_path / "out")]) == 1
        assert_names_key(capsys, p, key)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["gelscan.t_final", "gelscan.initial"])
    def test_removed_gelscan_keys_are_unknown(self, tmp_path, key):
        """gelscan reads run.t_final and initial.*; the old duplicates are
        unknown keys, not silently ignored ones."""
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(write(tmp_path, MINIMAL + f"{key} = 1.0\n"))

    def test_table_kernel_gelscan_matches_the_product_kernel(self, tmp_path):
        """One kernel serves every level, built at the largest N, so a table
        that covers exactly max(gelscan.n_list) runs; it is the same kernel
        as alpha = n*m, on the dense path instead of the factorised one."""
        table = tmp_path / "product.csv"
        rows = [f"{n},{m},{float(n * m)!r}" for n in range(1, 33) for m in range(1, n + 1)]
        table.write_text("n,m,alpha\n" + "\n".join(rows) + "\n")
        scan = "name = scan\nmode = gelscan\nrun.n_max = 32\nrun.t_final = 0.5\ngelscan.n_list = 8,16,32\n"
        gels = {}
        for kind, key in (("product", "kernel.a = 1.0"), ("table", f"kernel.table = {table}")):
            p = write(tmp_path, scan + f"kernel.kind = {kind}\n{key}\n", name=f"{kind}.cfg")
            assert main(["gelscan", str(p), "--workers", "1", "--out", str(tmp_path / kind)]) == 0
            lines = (tmp_path / kind / "gelscan.csv").read_text().splitlines()[2:]
            gels[kind] = np.array([[float(v) for v in line.split(",")] for line in lines])
        np.testing.assert_array_equal(gels["table"][:, 0], [8, 16, 32])
        np.testing.assert_allclose(gels["table"], gels["product"], rtol=1e-12, atol=0.0)

    def test_kernel_table_pair_out_of_range_exits_one(self, tmp_path, capsys):
        """A kernel CSV with a pair beyond run.n_max is a one-line error, not a traceback."""
        table = tmp_path / "k.csv"
        rows = [f"{n},{m},1.0" for n in range(1, 33) for m in range(1, n + 1)]
        table.write_text("n,m,alpha\n" + "\n".join(rows) + "\n")
        p = write(tmp_path, MINIMAL.replace("kernel.kind = constant", f"kernel.kind = table\nkernel.table = {table}"))
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"error: kernel.table must cover exactly 1..16, the largest N this scenario runs: {table}: pair (17,1) outside 1..16"
        ]

    def test_table_kernel_plateau_runs(self, tmp_path, capsys):
        """The main run (N = 12) and its refinement (N = 24) share one kernel,
        so a table over exactly 1..24 serves both."""
        p = write(tmp_path, TestDeterminism.TABLE_PLATEAU.format(table=sqrt_table(tmp_path, 24)))
        assert main(["run", str(p), "--workers", "1", "--out", str(tmp_path / "out")]) == 0
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "PASS moment_plateau_a2:" in report

    def test_table_kernel_plateau_names_the_range_it_needs(self, tmp_path, capsys):
        table = sqrt_table(tmp_path, 12)
        p = write(tmp_path, TestDeterminism.TABLE_PLATEAU.format(table=table))
        assert main(["run", str(p), "--workers", "1", "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: kernel.table must cover exactly 1..24, the largest N this scenario runs: {table}: missing rate for pair (1,13)"
        ]

    @pytest.mark.parametrize("n_max, extra, needed", [(12, "", 12), (8, "monitors = moment_plateau\n", 16)])
    def test_short_diffusion_table_names_key_rows_and_n(self, tmp_path, capsys, n_max, extra, needed):
        """An 8-row profile is too short for a run at N = 12, and for the
        plateau's refinement at N = 16 of a run at N = 8.  Either is found
        before the main run, so no file is written."""
        table = tmp_path / "d.csv"
        table.write_text("\n".join(repr(1.0 / n) for n in range(1, 9)) + "\n")
        text = PDE.replace("diffusion.kind = power_law", f"diffusion.kind = table\ndiffusion.table = {table}")
        text = text.replace("run.n_max = 12", f"run.n_max = {n_max}").replace("monitors = conservation, heat_majorant\n", extra)
        p = write(tmp_path, text)
        assert main(["run", str(p), "--workers", "1", "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: diffusion.table: {table} has 8 rows, fewer than a run's N = {needed}"
        ]
        assert list((tmp_path / "out").iterdir()) == []

    def test_plateau_line_does_not_depend_on_recorded_fields(self, tmp_path):
        """The initial functionals come from the scenario's initial field,
        so recording fields does not change the plateau line."""
        lines = {}
        for flag in ("true", "false"):
            text = PDE.replace("run.record_fields = true", f"run.record_fields = {flag}").replace(
                "monitors = conservation, heat_majorant", "monitors = moment_plateau"
            )
            out = tmp_path / flag
            assert execute(parse_config(write(tmp_path, text + "workers = 1\n")), out_override=str(out)) == 0
            lines[flag] = [line for line in (out / "report.txt").read_text().splitlines() if " moment_plateau_a2:" in line]
        assert lines["true"] == lines["false"] and len(lines["true"]) == 1
        assert "; initial functionals A1=" in lines["true"][0]

    @pytest.mark.parametrize("a", ["0.5", "0"])
    def test_plateau_exponent_below_one_is_named(self, tmp_path, capsys, a):
        """The pair moments of the plateau take the exponent a - 1, so a < 1
        is a config error naming the key, not a failed weight."""
        text = PDE.replace("monitors = conservation, heat_majorant", f"monitors = moment_plateau\nmoment_plateau.a = {a}")
        p = write(tmp_path, text)
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 1
        assert_names_key(capsys, p, "moment_plateau.a", "must be finite and >= 1")

    def test_pde_mode_runs_heat_majorant_monitor(self, tmp_path):
        s = parse_config(write(tmp_path, PDE))
        assert s.mode == "pde" and "heat_majorant" in s.monitors
        assert execute(s, out_override=str(tmp_path / "out")) == 0
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "heat_majorant_domination" in report
        assert "PASS" in report


def spy_runs(monkeypatch) -> list:
    """Record ``(initial field, config)`` of every solver run the CLI starts."""
    calls = []
    real = cli.run

    def spy(field0, kernel, dp, cfg, **kwargs):
        calls.append((field0, cfg))
        return real(field0, kernel, dp, cfg, **kwargs)

    monkeypatch.setattr(cli, "run", spy)
    return calls


class TestRefinementRuns:
    """The moment-plateau refinements and the gronwall perturbation.

    The scenarios set ``workers = 1``: the spy sees no run a forked level makes.
    """

    MONITORED = PDE.replace(
        "monitors = conservation, heat_majorant",
        "monitors = conservation, moment_plateau, gronwall\nmoment_plateau.refinements = 2",
    ) + "workers = 1\n"

    def test_plateau_and_gronwall_pass(self, tmp_path, monkeypatch):
        calls = spy_runs(monkeypatch)
        s = parse_config(write(tmp_path, self.MONITORED))
        assert execute(s, out_override=str(tmp_path / "out")) == 0
        report = (tmp_path / "out" / "report.txt").read_text().splitlines()
        for name in ("moment_plateau_a2", "gronwall_stability"):
            assert [line.split(":")[0] for line in report if f" {name}:" in line] == [f"PASS {name}"]
        # base, perturbed base, then the refinements, largest N first
        assert [f.n_max for f, _ in calls] == [12, 12, 48, 24]
        base, perturbed = calls[0][0], calls[1][0]
        np.testing.assert_array_equal(perturbed.data, base.data * (1.0 + s.gronwall_delta))
        assert calls[1][1] is calls[0][1]
        for _, cfg in calls[2:]:
            assert not cfg.track_majorant
            assert cfg.moment_exponents == calls[0][1].moment_exponents

    def test_tracer_refinements_share_dt_and_stride(self, tmp_path, monkeypatch):
        """Tracer mode aligns dt and the stride to the slice width; the
        refinements must run on the same time grid as the base run."""
        text = TestDeterminism.REJECTING.replace("run.t_final = 0.1", "run.t_final = 0.5")
        text = text.replace("run.dt = 0.005", "run.dt = 0.01").replace("tracer.count = 20000", "tracer.count = 500")
        calls = spy_runs(monkeypatch)
        s = parse_config(write(tmp_path, text + "monitors = conservation, moment_plateau\nworkers = 1\n"))
        execute(s, out_override=str(tmp_path / "out"))
        base = calls[0][1]
        assert base.stride == 0.125 and 0.125 / base.dt == pytest.approx(13)
        assert [f.n_max for f, _ in calls] == [24, 48]
        for _, cfg in calls[1:]:
            assert (cfg.dt, cfg.stride) == (base.dt, base.stride)


def file_bytes(path: Path) -> bytes | dict[str, bytes]:
    """A file's bytes, or a directory's as {name: bytes}."""
    if path.is_dir():
        return {p.name: p.read_bytes() for p in sorted(path.iterdir())}
    return path.read_bytes()


class TestDeterminism:
    TRACER = """
name = det
mode = tracer
seed = 21
kernel.kind = constant
kernel.c = 1.0
diffusion.kind = constant
diffusion.value = 0.05
grid.dim = 1
grid.length = 1.0
grid.cells = 16
initial.kind = monodisperse
initial.amplitude = 1.0
run.n_max = 12
run.t_final = 0.1
run.dt = 0.01
tracer.count = 20000
tracer.slices = 8
"""

    def test_identical_seed_byte_identical_outputs(self, tmp_path):
        s = parse_config(write(tmp_path, self.TRACER))
        outs = []
        for tag in ("a", "b"):
            execute(s, out_override=str(tmp_path / tag))
            outs.append({
                name: (tmp_path / tag / name).read_bytes()
                for name in ("series.csv", "histogram.csv", "summary.csv", "report.txt")
            })
        assert outs[0] == outs[1]

    # A Gaussian blob under the sum kernel with d(n) = 0.05 n^(-1/2): the
    # field varies in space, so the thinning rejects proposals.  20000
    # tracers make three chunks.
    REJECTING = """
name = det-blob
mode = tracer
seed = 5
kernel.kind = sum
kernel.c0 = 1.0
diffusion.kind = power_law
diffusion.r2 = 0.05
diffusion.b2 = 0.5
grid.dim = 1
grid.length = 1.0
grid.cells = 32
initial.kind = gaussian_blob
initial.amplitude = 1.0
initial.width = 0.1
run.n_max = 24
run.t_final = 0.1
run.dt = 0.005
tracer.count = 20000
tracer.slices = 4
"""

    # Three refinement levels of the product kernel: gelling, so G(T) is
    # far from roundoff and any reordering of the levels would show.
    GELSCAN = """
name = det-gel
mode = gelscan
kernel.kind = product
run.n_max = 64
gelscan.n_list = 16,32,64
run.t_final = 1.0
"""

    # Two moment-plateau refinements (N = 24, 48) of the pde scenario: the
    # refinement levels are mapped out like the gelscan levels.
    PLATEAU = PDE.replace(
        "monitors = conservation, heat_majorant",
        "monitors = conservation, heat_majorant, moment_plateau\nmoment_plateau.refinements = 2",
    )

    # The plateau scenario on a table kernel: one CSV of sqrt(n+m) over
    # 1..24 serves the main run (N = 12) and its refinement (N = 24).
    TABLE_PLATEAU = PDE.replace("kernel.kind = sum\nkernel.c0 = 1.0", "kernel.kind = table\nkernel.table = {table}").replace(
        "monitors = conservation, heat_majorant", "monitors = conservation, heat_majorant, moment_plateau"
    )

    @pytest.mark.parametrize("workers", [2, 8])
    def test_worker_count_does_not_change_bytes(self, tmp_path, workers):
        tracer_files = ("series.csv", "histogram.csv", "summary.csv", "report.txt")
        for tag, text, names in (
            ("pde", PDE, ("series.csv", "report.txt", "snapshots")),
            ("uniform", self.TRACER, tracer_files),
            ("rejecting", self.REJECTING, tracer_files),
            ("gelscan", self.GELSCAN, ("gelscan.csv", "report.txt")),
            ("plateau", self.PLATEAU, ("series.csv", "report.txt")),
            ("table-plateau", self.TABLE_PLATEAU.format(table=sqrt_table(tmp_path, 24)), ("series.csv", "report.txt")),
        ):
            s = parse_config(write(tmp_path, text))
            w1, wn = tmp_path / tag / "w1", tmp_path / tag / "wN"
            execute(dataclasses.replace(s, workers=1), out_override=str(w1))
            execute(dataclasses.replace(s, workers=workers), out_override=str(wn))
            for name in names:
                assert file_bytes(w1 / name) == file_bytes(wn / name), (tag, name)
        assert len(list((tmp_path / "pde" / "wN" / "snapshots").iterdir())) == 3
        report = (tmp_path / "rejecting" / "w1" / "report.txt").read_text()
        rate = float(report.split("(acceptance rate ")[1].split(")")[0])
        assert rate < 1.0

    @pytest.mark.parametrize(
        "command, text",
        [("run", PDE), ("run", TRACER), ("gelscan", GELSCAN), ("run", PLATEAU), ("run", TABLE_PLATEAU)],
        ids=["pde", "tracer", "gelscan", "plateau", "table-plateau"],
    )
    def test_one_worker_makes_no_fork(self, tmp_path, monkeypatch, command, text):
        def no_fork():
            raise AssertionError("a process was started")

        text = text.format(table=sqrt_table(tmp_path, 24))  # only TABLE_PLATEAU has a field to fill
        monkeypatch.setattr(os, "fork", no_fork)
        out = str(tmp_path / "out")
        assert main([command, str(write(tmp_path, text)), "--workers", "1", "--out", out]) == 0

    def test_report_counts_thinning(self, tmp_path):
        s = parse_config(write(tmp_path, self.TRACER))
        execute(s, out_override=str(tmp_path / "out"))
        lines = (tmp_path / "out" / "report.txt").read_text().splitlines()
        thinning = [line for line in lines if line.startswith("tracer thinning: ")]
        assert len(thinning) == 1
        assert "proposals" in thinning[0] and "acceptance rate" in thinning[0]
        assert "chunk-local table extensions" in thinning[0]


class TestSnapshotFiles:
    """``snapshots/`` is written when ``run.record_fields = true`` and only then;
    tracer and gronwall runs keep their fields in memory either way."""

    # sha256 over the names and bytes of the tracer scenario's snapshots,
    # from the code that wrote every recorded field, with t counted in
    # steps of dt and a last step of exactly dt.
    TRACER_SNAPSHOTS_SHA256 = "a2ee7b5de9b9c4384e5a7234c0f8814f7f9b2b9422aa85040592c963f099b41f"

    @staticmethod
    def snapshot_digest(snapdir: Path) -> str:
        h = hashlib.sha256()
        for p in sorted(snapdir.iterdir()):
            h.update(p.name.encode())
            h.update(p.read_bytes())
        return h.hexdigest()

    def test_tracer_without_record_fields_writes_none(self, tmp_path):
        out = tmp_path / "out"
        assert execute(parse_config(write(tmp_path, TestDeterminism.TRACER)), out_override=str(out)) == 0
        assert (out / "histogram.csv").exists() and not (out / "snapshots").exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_tracer_with_record_fields_writes_one_per_series_row(self, tmp_path, workers):
        """The same bytes whether the snapshots are written here or in writer processes."""
        out = tmp_path / "out"
        s = parse_config(write(tmp_path, TestDeterminism.TRACER + "run.record_fields = true\n"))
        assert execute(dataclasses.replace(s, workers=workers), out_override=str(out)) == 0
        rows = (out / "series.csv").read_text().splitlines()[2:]
        assert [p.name for p in sorted((out / "snapshots").iterdir())] == [
            f"snapshot_{i:04d}.csv" for i in range(len(rows))
        ]
        assert self.snapshot_digest(out / "snapshots") == self.TRACER_SNAPSHOTS_SHA256

    def test_gronwall_without_record_fields_writes_none(self, tmp_path):
        text = PDE.replace("run.record_fields = true\n", "").replace(
            "monitors = conservation, heat_majorant", "monitors = gronwall\ngronwall.a_bound = 1e4"
        )
        out = tmp_path / "out"
        assert execute(parse_config(write(tmp_path, text)), out_override=str(out)) == 0
        assert "PASS gronwall_stability" in (out / "report.txt").read_text()
        assert not (out / "snapshots").exists()


class TestSnapshotWriter:
    """The main run's snapshots are written after the run, through
    ``fork_map`` in forked writer processes when ``workers > 1`` and here
    otherwise.  Either way a failed run leaves no ``snapshots/`` and no
    process."""

    @pytest.mark.parametrize("workers, here", [(1, 3), (2, 0)])
    def test_who_writes(self, tmp_path, monkeypatch, workers, here):
        calls = []
        real = cli.write_field_csv

        def spy(path, *args):
            calls.append(path.name)
            return real(path, *args)

        monkeypatch.setattr(cli, "write_field_csv", spy)
        out = tmp_path / "out"
        assert main(["run", str(write(tmp_path, PDE)), "--workers", str(workers), "--out", str(out)]) == 0
        assert len(calls) == here
        assert [p.name for p in sorted((out / "snapshots").iterdir())] == [f"snapshot_{i:04d}.csv" for i in range(3)]

    def test_without_fork_the_snapshots_are_written_here(self, tmp_path, monkeypatch):
        """``--workers 2`` on a platform without fork writes every snapshot
        in this process, with the bytes of ``--workers 1``."""
        import multiprocessing

        p = write(tmp_path, PDE)
        assert main(["run", str(p), "--workers", "1", "--out", str(tmp_path / "one")]) == 0
        calls = []
        real = cli.write_field_csv

        def spy(path, *args):
            calls.append(path.name)
            return real(path, *args)

        def no_fork():
            raise AssertionError("a process was started")

        monkeypatch.setattr(cli, "write_field_csv", spy)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(os, "fork", no_fork)
        assert main(["run", str(p), "--workers", "2", "--out", str(tmp_path / "two")]) == 0
        assert calls == [f"snapshot_{i:04d}.csv" for i in range(3)]
        digest = TestSnapshotFiles.snapshot_digest
        assert digest(tmp_path / "two" / "snapshots") == digest(tmp_path / "one" / "snapshots")

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_each_snapshot_holds_its_series_row(self, tmp_path, workers):
        """Snapshot i carries series row i's t and gel, and its field's
        zeroth moment is that row's X0; the gel reservoir fills, so no two
        rows share a gel value."""
        text = MINIMAL.replace("run.t_final = 0.2", "run.t_final = 1.0") + (
            "run.output_stride = 0.25\nrun.record_fields = true\nrun.policy = gel_reservoir\n"
        )
        out = tmp_path / "out"
        assert main(["run", str(write(tmp_path, text)), "--workers", workers, "--out", str(out)]) == 0
        lines = (out / "series.csv").read_text().splitlines()
        rows = [dict(zip(lines[1].split(","), row.split(","))) for row in lines[2:]]
        assert len(rows) == 5 and len({row["gel"] for row in rows}) == 5
        for i, row in enumerate(rows):
            path = out / "snapshots" / f"snapshot_{i:04d}.csv"
            assert f" t={row['t']} gel={row['gel']} " in path.read_text().splitlines()[0]
            assert read_field_csv(path, Grid.point(), 16).data.sum() == pytest.approx(float(row["X0"]), rel=1e-12)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_a_horizon_below_the_step_slack_writes_every_snapshot(self, tmp_path, workers):
        """``run.t_final = 1e-10`` takes its one step and records both ends."""
        out = tmp_path / "out"
        p = write(tmp_path, PDE.replace("run.t_final = 0.1", "run.t_final = 1e-10"))
        assert main(["run", str(p), "--workers", workers, "--out", str(out)]) == 0
        rows = (out / "series.csv").read_text().splitlines()[2:]
        assert [float(row.split(",")[0]) for row in rows] == [0.0, 1e-10]
        assert [p.name for p in sorted((out / "snapshots").iterdir())] == ["snapshot_0000.csv", "snapshot_0001.csv"]

    def test_nothing_is_forked_while_the_run_steps(self, tmp_path, monkeypatch):
        """At a step after snapshot 1 is recorded, the run has no thread
        beside its own and no child: nothing takes the GIL from the solver."""
        import threading

        from smolkit.coagulation import RateEvaluator

        seen, calls = [], [0]
        real = RateEvaluator.loss_coefficients

        def spy(self, *args, **kwargs):
            calls[0] += 1
            if calls[0] == 60:  # the 12th of 20 steps; snapshot 1 is recorded at the 10th
                try:
                    os.waitpid(-1, os.WNOHANG)
                    seen.append((threading.active_count(), "a child"))
                except ChildProcessError:
                    seen.append((threading.active_count(), "no child"))
            return real(self, *args, **kwargs)

        monkeypatch.setattr(RateEvaluator, "loss_coefficients", spy)
        out = tmp_path / "out"
        assert main(["run", str(write(tmp_path, PDE)), "--workers", "2", "--out", str(out)]) == 0
        assert seen == [(1, "no child")]
        assert len(list((out / "snapshots").iterdir())) == 3

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_run_failing_partway_leaves_no_snapshots(self, tmp_path, monkeypatch, capsys, workers):
        """The 15th of 20 steps fails, after snapshots 0 and 1 were handed on."""
        import smolkit.integrator as integrator

        real, calls = integrator._Engine.react_rk4, [0]

        def fail_on_15th(self, flat, gel, dt):
            calls[0] += 1
            if calls[0] == 15:
                raise FloatingPointError("injected")
            return real(self, flat, gel, dt)

        monkeypatch.setattr(integrator._Engine, "react_rk4", fail_on_15th)
        out = tmp_path / "out"
        assert main(["run", str(write(tmp_path, PDE)), "--workers", workers, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "runtime error: FloatingPointError: injected\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_writer_that_cannot_write_fails_the_run(self, tmp_path, capsys, workers):
        """A directory stands where snapshot 1 should go."""
        out = tmp_path / "out"
        (out / "snapshots" / "snapshot_0001.csv").mkdir(parents=True)
        assert main(["run", str(write(tmp_path, PDE)), "--workers", workers, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("runtime error: OSError: snapshot writer: ") and "snapshot_0001.csv" in err
        assert list(out.iterdir()) == []


class TestOneKernelPerScenario:
    """``execute`` builds the scenario's kernel once, at the largest N any of
    its runs uses, and every run and the tracer receive that object.  The
    scenarios set ``workers = 1``, so the spies see every run."""

    @pytest.mark.parametrize(
        "text, n_kernel, uses",
        [
            (TestRefinementRuns.MONITORED, 48, 4),  # main, gronwall rerun, N = 48 and 24
            (TestDeterminism.TRACER + "workers = 1\n", 12, 2),  # the run, then the tracer
            (MINIMAL + "workers = 1\n", 16, 1),
            (TestDeterminism.GELSCAN + "workers = 1\n", 64, 3),
        ],
        ids=["pde-plateau-gronwall", "tracer", "homogeneous", "gelscan"],
    )
    def test_every_run_gets_the_one_kernel(self, tmp_path, monkeypatch, text, n_kernel, uses):
        built, used = [], []
        build_kernel, run, simulate = cli.build_kernel, cli.run, cli.simulate

        def spy_build(s):
            built.append(build_kernel(s))
            return built[-1]

        def spy_run(field0, kernel, dp, cfg, **kwargs):
            used.append(kernel)
            return run(field0, kernel, dp, cfg, **kwargs)

        def spy_simulate(fields, kernel, *args, **kwargs):
            used.append(kernel)
            return simulate(fields, kernel, *args, **kwargs)

        monkeypatch.setattr(cli, "build_kernel", spy_build)
        monkeypatch.setattr(cli, "run", spy_run)
        monkeypatch.setattr(cli, "simulate", spy_simulate)
        assert execute(parse_config(write(tmp_path, text)), out_override=str(tmp_path / "out")) == 0
        assert len(built) == 1 and built[0].n_max == n_kernel
        assert len(used) == uses and all(k is built[0] for k in used)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def shipped_scope(name):
    """The scope of a shipped config's main run, evaluated without running it."""
    s = parse_config(CONFIGS / name)
    kernel = cli.build_kernel(s)
    field0, dp, cfg = cli.build_run(s, kernel)
    return analysis.scope(kernel, dp, field0, max(cfg.moment_exponents))


class TestScopeLine:
    """The hypotheses are evaluated once per spatial scenario and reported on
    one informative line after the header; no exit code depends on it."""

    def test_a1_is_swept_once_per_scenario(self, tmp_path, monkeypatch):
        calls = []
        real = analysis.check_assumption_1_1

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(analysis, "check_assumption_1_1", spy)
        s = parse_config(write(tmp_path, TestRefinementRuns.MONITORED))
        assert execute(s, out_override=str(tmp_path / "out")) == 0
        assert len(calls) == 1

    def test_outside_a1_still_exits_zero(self, tmp_path):
        """The sum kernel with d = n^(-1/2) is outside (A1) at (1, 1)."""
        assert execute(parse_config(write(tmp_path, PDE)), out_override=str(tmp_path / "out")) == 0
        lines = (tmp_path / "out" / "report.txt").read_text().splitlines()
        assert lines[1].startswith("scope: N=12, dim=1; A1 NOT met (delta=0.25, witness (1, 1)); A2 ok")
        assert [line for line in lines if line.startswith("scope:")] == [lines[1]]

    def test_homogeneous_mode_has_no_scope(self, tmp_path):
        assert execute(parse_config(write(tmp_path, MINIMAL)), out_override=str(tmp_path / "out")) == 0
        assert "scope:" not in (tmp_path / "out" / "report.txt").read_text()

    def test_shipped_spatial_configs(self):
        diffusion = shipped_scope("coagulation_diffusion.cfg")
        assert not diffusion.a1.passed and diffusion.a1.witness == (1, 1) and diffusion.c0 == 2.0
        tracer = shipped_scope("tracer_consistency.cfg")
        assert tracer.a1.passed and tracer.a1.k0 == 39 and tracer.n_max == 40


class TestShippedConfigs:
    @pytest.mark.parametrize(
        "name",
        [
            "constant_homogeneous.cfg",
            "coagulation_diffusion.cfg",
            "tracer_consistency.cfg",
            "gelation_scan.cfg",
        ],
    )
    def test_configs_parse(self, name):
        import pathlib

        path = pathlib.Path(__file__).resolve().parent.parent / "configs" / name
        s = parse_config(path)
        assert s.name

    def test_readme_key_list_is_the_schema(self):
        """The README's "Full key list" gives one line to every declared key, and no other."""
        readme = (CONFIGS.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("Full key list", 1)[1].split("```", 2)[1]
        keys = [line.split()[0] for line in block.splitlines() if line.strip()]
        assert sorted(keys) == sorted(cli.SCHEMA)

    def test_smallest_config_executes(self, tmp_path):
        import pathlib

        path = pathlib.Path(__file__).resolve().parent.parent / "configs" / "constant_homogeneous.cfg"
        assert execute(parse_config(path), out_override=str(tmp_path / "out")) == 0


class TestOutputDir:
    def test_env_var_sets_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SMOLKIT_OUT", str(tmp_path / "envroot"))
        monkeypatch.chdir(tmp_path)
        s = parse_config(write(tmp_path, MINIMAL))
        assert execute(s) == 0
        assert (tmp_path / "envroot" / "mini" / "report.txt").exists()


class TestFieldCsv:
    def test_point_grid_roundtrip_reads_homogeneous_rows(self, tmp_path):
        """On the one-cell point grid a snapshot row is ``n,value``, the same
        two-column format a homogeneous initial table uses."""
        grid = Grid.point()
        flat = np.array([[0.5], [0.25], [0.0]])
        path = tmp_path / "field.csv"
        write_field_csv(path, flat, grid, t=0.0, gel=0.0)
        assert path.read_text().splitlines()[1:] == ["1,0.5", "2,0.25", "3,0.0"]
        np.testing.assert_array_equal(read_field_csv(path, grid, 3).flat(), flat)

    def test_homogeneous_table_initial_data(self, tmp_path):
        table = tmp_path / "c0.csv"
        table.write_text("1,1.0\n3,0.25\n", encoding="utf-8")
        text = MINIMAL + f"initial.kind = table\ninitial.table = {table}\nrun.record_fields = true\n"
        s = parse_config(write(tmp_path, text))
        assert execute(s, out_override=str(tmp_path / "out")) == 0
        F0 = read_field_csv(tmp_path / "out" / "snapshots" / "snapshot_0000.csv", Grid.point(), 16)
        assert F0.data[0] == 1.0 and F0.data[2] == 0.25 and F0.data.sum() == 1.25

    def test_write_read_roundtrip(self, tmp_path):
        grid = Grid(1, 1.0, 8)
        rng = np.random.default_rng(0)
        flat = rng.random((4, 8))
        path = tmp_path / "field.csv"
        write_field_csv(path, flat, grid, t=0.25, gel=0.125)
        F = read_field_csv(path, grid, 4)
        np.testing.assert_array_equal(F.flat(), flat)
        assert F.gel_reservoir == 0.125

    @pytest.mark.parametrize("grid", [Grid.point(), Grid(1, 1.0, 4), Grid(2, 1.0, 4)], ids=["point", "1d", "2d"])
    def test_values_are_written_as_float_repr(self, tmp_path, grid):
        """Each value's text is repr(float(v)), the shortest that reads back
        bit for bit, including signed zero, subnormals and large values."""
        special = [-0.0, 5e-324, 1e-300, 0.1, 1e16]
        flat = np.resize(np.array(special + [0.5, 0.25]), (6, grid.n_cells))
        path = tmp_path / "field.csv"
        write_field_csv(path, flat, grid, t=0.1, gel=0.0)
        want = [f"{n + 1}," + ",".join(repr(float(v)) for v in flat[n]) for n in range(6)]
        assert path.read_text(encoding="utf-8").splitlines()[1:] == want
        assert np.array_equal(np.signbit(read_field_csv(path, grid, 6).flat()), np.signbit(flat))

    @pytest.mark.parametrize("kernel", ["kernel.kind = constant\nkernel.c = 1.0", "kernel.kind = sum\nkernel.c0 = 1.0"])
    def test_restart_from_snapshot_with_roundoff_negatives(self, tmp_path, kernel):
        """Constant- and sum-kernel runs take their gain by FFT, which leaves
        small densities of either sign in empty tail species; a snapshot
        holding them seeds a new run."""
        text = MINIMAL.replace("kernel.kind = constant\nkernel.c = 1.0", kernel)
        text = text.replace("run.n_max = 16", "run.n_max = 64").replace("run.t_final = 0.2", "run.t_final = 1.0")
        text = text.replace("run.dt = 0.01", "run.dt = 0.001") + "run.record_fields = true\nrun.output_stride = 0.1\n"
        assert execute(parse_config(write(tmp_path, text)), out_override=str(tmp_path / "a")) == 0
        lowest = {
            p: min(float(v) for row in p.read_text().splitlines()[1:] for v in row.split(",")[1:])
            for p in (tmp_path / "a" / "snapshots").glob("*.csv")
        }
        snap = min(lowest, key=lowest.get)
        assert lowest[snap] < 0.0
        restart = text + f"initial.kind = table\ninitial.table = {snap}\n"
        assert execute(parse_config(write(tmp_path, restart)), out_override=str(tmp_path / "b")) == 0
        assert read_field_csv(snap, Grid.point(), 64).data.min() == 0.0

    def test_only_roundoff_negatives_read_as_zero(self, tmp_path):
        path = tmp_path / "field.csv"
        path.write_text("1,1.0\n2,-1e-15\n")
        with pytest.raises(ValueError, match="negative density for mass 2"):
            read_field_csv(path, Grid.point(), 2)
        path.write_text("1,1.0\n2,-1e-17\n")
        assert read_field_csv(path, Grid.point(), 2).data.min() == 0.0

    def test_wrong_cell_count_rejected(self, tmp_path):
        grid = Grid(1, 1.0, 8)
        path = tmp_path / "field.csv"
        path.write_text("1,0.5,0.5\n")
        with pytest.raises(ConfigError, match="cells"):
            read_field_csv(path, grid, 2)
