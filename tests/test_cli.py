"""Config parsing, execution paths, and exit codes."""

import dataclasses
import os

import numpy as np
import pytest

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
run.track_majorant = true
run.record_fields = true
monitors = conservation, heat_majorant
"""


def write(tmp_path, text, name="scenario.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
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
            attr, parser = cli.SCHEMA[key]
            assert getattr(s, attr) == parser(value), key


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
                           "monitors = gronwall\ngronwall.c0 = 2.0\ngronwall.a_bound = 1e-9")
        p = write(tmp_path, text)
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 1

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_flag_is_validated(self, tmp_path, capsys, workers):
        """``--workers`` meets the same check as ``workers`` in the file."""
        p = write(tmp_path, MINIMAL)
        assert main(["run", str(p), "--workers", workers, "--out", str(tmp_path / "out")]) == 1
        assert f"error: {p}: workers: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "line,named", [("run.moments = 200", "a=200"), ("run.pair_moments = 150", "a=150"), ("run.moments = -1", "a=-1")]
    )
    def test_bad_moment_exponent_exits_one_before_the_run(self, tmp_path, capsys, line, named):
        """A weight n^a that overflows float64 at n_max = 1000, or an exponent
        a < 0, is one line on stderr and exit 1, not a nan series."""
        p = write(tmp_path, MINIMAL.replace("run.n_max = 16", "run.n_max = 1000") + line + "\n")
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and named in err
        assert not (tmp_path / "out" / "series.csv").exists()

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

    def test_gelscan_zero_data_at_time_zero(self, tmp_path, capsys):
        """No reaction and no time: the fallback step must still be positive."""
        p = write(tmp_path, MINIMAL.replace("run.t_final = 0.2", "run.t_final = 0") + "initial.amplitude = 0\n")
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
        assert f"error: {p}: {key}: " in capsys.readouterr().err
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
        assert err.splitlines() == [f"error: {table}: pair (17,1) outside 1..16"]

    @pytest.mark.parametrize("a", ["0.5", "0"])
    def test_plateau_exponent_below_one_is_named(self, tmp_path, capsys, a):
        """The pair moments of the plateau take the exponent a - 1, so a < 1
        is a config error naming the key, not a failed weight."""
        text = PDE.replace("monitors = conservation, heat_majorant", f"monitors = moment_plateau\nmoment_plateau.a = {a}")
        p = write(tmp_path, text)
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 1
        assert f"error: {p}: moment_plateau.a: must be >= 1" in capsys.readouterr().err

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

    def spy(field0, kernel, dp, cfg):
        calls.append((field0, cfg))
        return real(field0, kernel, dp, cfg)

    monkeypatch.setattr(cli, "run", spy)
    return calls


class TestRefinementRuns:
    """The moment-plateau refinements and the gronwall perturbation.

    The scenarios set ``workers = 1``: the spy sees no run a forked level makes.
    """

    MONITORED = PDE.replace(
        "monitors = conservation, heat_majorant",
        "monitors = conservation, moment_plateau, gronwall\nmoment_plateau.refinements = 2\ngronwall.c0 = 2.0",
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
            assert not cfg.record_fields and not cfg.track_majorant
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

    @pytest.mark.parametrize("workers", [2, 8])
    def test_worker_count_does_not_change_bytes(self, tmp_path, workers):
        tracer_files = ("series.csv", "histogram.csv", "summary.csv", "report.txt")
        for tag, text, names in (
            ("uniform", self.TRACER, tracer_files),
            ("rejecting", self.REJECTING, tracer_files),
            ("gelscan", self.GELSCAN, ("gelscan.csv", "report.txt")),
            ("plateau", self.PLATEAU, ("series.csv", "report.txt")),
        ):
            s = parse_config(write(tmp_path, text))
            w1, wn = tmp_path / tag / "w1", tmp_path / tag / "wN"
            execute(dataclasses.replace(s, workers=1), out_override=str(w1))
            execute(dataclasses.replace(s, workers=workers), out_override=str(wn))
            for name in names:
                assert (w1 / name).read_bytes() == (wn / name).read_bytes(), (tag, name)
        report = (tmp_path / "rejecting" / "w1" / "report.txt").read_text()
        rate = float(report.split("(acceptance rate ")[1].split(")")[0])
        assert rate < 1.0

    @pytest.mark.parametrize(
        "command, text", [("run", TRACER), ("gelscan", GELSCAN), ("run", PLATEAU)], ids=["tracer", "gelscan", "plateau"]
    )
    def test_one_worker_makes_no_fork(self, tmp_path, monkeypatch, command, text):
        def no_fork():
            raise AssertionError("a process was started")

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
