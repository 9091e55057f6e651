import csv
import io
import math

import numpy as np
import pytest

from cbf.cli import main
from cbf.experiments import (
    Scenario,
    SweepSpec,
    grid_values,
    render_tables,
    run_sweep,
    run_tables,
    sweep_csv,
)
from cbf.quadrature import QuadratureConfig

LIGHT = QuadratureConfig(points_per_axis=16, refine_max_doublings=0)
TABLE_DISTS = ("normal:0,1", "normal:0,0.5", "normal:4,1", "normal:4,0.5")


class TestScenarioValidation:
    def test_rejects_unknown_measure(self):
        with pytest.raises(ValueError, match="entropy"):
            Scenario(distributions=TABLE_DISTS[:2], measures=("entropy",))

    def test_rejects_empty_measures(self):
        with pytest.raises(ValueError):
            Scenario(distributions=TABLE_DISTS[:2], measures=())

    def test_rejects_bad_distribution_early(self):
        with pytest.raises(ValueError, match="cauchy"):
            Scenario(distributions=("cauchy:0,1",))

    def test_rejects_bad_format(self):
        with pytest.raises(ValueError):
            Scenario(distributions=TABLE_DISTS[:2], output_format="yaml")

    def test_sweep_rejects_zero_step(self):
        with pytest.raises(ValueError, match="step"):
            SweepSpec(fixed="normal:0,1", mu2=(0, 1, 0.0), sigma2=(0.5, 1, 0.5))

    def test_sweep_rejects_empty_range(self):
        with pytest.raises(ValueError):
            SweepSpec(fixed="normal:0,1", mu2=(2, 1, 0.5), sigma2=(0.5, 1, 0.5))

    def test_sweep_rejects_non_positive_sigma(self):
        with pytest.raises(ValueError, match="sigma2"):
            SweepSpec(fixed="normal:0,1", mu2=(0, 1, 1), sigma2=(0.0, 1, 0.5))

    def test_sweep_rejects_bad_measure_and_direction(self):
        with pytest.raises(ValueError):
            SweepSpec(fixed="normal:0,1", mu2=(0, 1, 1), sigma2=(0.5, 1, 0.5),
                      measure="distance")
        with pytest.raises(ValueError):
            SweepSpec(fixed="normal:0,1", mu2=(0, 1, 1), sigma2=(0.5, 1, 0.5),
                      direction="both")


class TestGridValues:
    def test_simple(self):
        np.testing.assert_allclose(grid_values((0.0, 1.0, 0.5)), [0.0, 0.5, 1.0])

    def test_endpoint_included_despite_float_noise(self):
        vals = grid_values((0.0, 0.3, 0.1))
        assert len(vals) == 4
        assert vals[-1] == pytest.approx(0.3)

    def test_single_point(self):
        np.testing.assert_allclose(grid_values((2.0, 2.0, 1.0)), [2.0])


class TestRunTables:
    def test_rejects_single_distribution(self):
        with pytest.raises(ValueError, match="two"):
            run_tables(Scenario(distributions=("normal:0,1",)))

    def test_pair_symmetric_for_identical_operands(self):
        s = Scenario(distributions=("normal:0,1", "normal:0,1"), quadrature=LIGHT)
        t = run_tables(s)
        for meas in ("incstr", "incpar"):
            mat = t.matrices[meas]
            assert mat.shape == (2, 2)
            np.testing.assert_allclose(mat, mat.T, atol=1e-12)
        assert t.matrices["incstr"][0, 1] == pytest.approx(0.5, abs=1e-3)

    def test_full_reference_set(self):
        s = Scenario(distributions=TABLE_DISTS, measures=("incstr", "incpar"),
                     quadrature=LIGHT)
        t = run_tables(s)
        assert t.labels == ("normal:0,1", "normal:0,0.5", "normal:4,1", "normal:4,0.5")
        np.testing.assert_allclose(np.diag(t.matrices["incstr"]), 0.5, atol=1e-3)
        np.testing.assert_allclose(np.diag(t.matrices["incpar"]),
                                   0.5 + 1.0 / math.pi, atol=1e-3)

    def test_row_averages_are_off_diagonal_means(self):
        s = Scenario(distributions=TABLE_DISTS[:3], measures=("incpar",), quadrature=LIGHT)
        t = run_tables(s)
        mat = t.matrices["incpar"]
        for i in range(3):
            manual = np.mean([mat[i, j] for j in range(3) if j != i])
            assert t.averages["incpar"][i] == pytest.approx(manual, abs=1e-15)

    def test_distance_and_scalar_share_gram(self):
        s = Scenario(distributions=TABLE_DISTS[:2], measures=("scalar", "distance"),
                     quadrature=LIGHT)
        t = run_tables(s)
        g = t.matrices["scalar"]
        d = t.matrices["distance"]
        expected = math.sqrt(max(0.0, 0.5 * (g[0, 0] + g[1, 1] - 2 * g[0, 1])))
        assert d[0, 1] == pytest.approx(expected, abs=1e-12)
        assert d[0, 0] == 0.0

    def test_determinism(self):
        s = Scenario(distributions=TABLE_DISTS[:2], quadrature=LIGHT)
        t1, t2 = run_tables(s), run_tables(s)
        for meas in t1.matrices:
            np.testing.assert_array_equal(t1.matrices[meas], t2.matrices[meas])

    def test_writes_output_file(self, tmp_path):
        out = tmp_path / "tables.md"
        s = Scenario(distributions=TABLE_DISTS[:2], measures=("incstr",),
                     quadrature=LIGHT, output_path=str(out))
        run_tables(s)
        text = out.read_text()
        assert "### incstr" in text
        assert "normal:0,0.5" in text


class TestRendering:
    def _tableset(self):
        s = Scenario(distributions=TABLE_DISTS[:2], measures=("incstr",), quadrature=LIGHT)
        return run_tables(s)

    def test_markdown_layout(self):
        text = render_tables(self._tableset(), "markdown")
        lines = text.splitlines()
        assert lines[0] == "### incstr"
        assert lines[2].startswith("| f_i \\ f_j |")
        assert lines[2].rstrip().endswith("avg |")
        assert text.endswith("\n")

    def test_csv_round_trips_through_reader(self):
        text = render_tables(self._tableset(), "csv")
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["measure", "f_i", "f_j", "value"]
        # 2x2 matrix plus one avg row per distribution
        assert len(rows) == 1 + 6
        values = {(r[1], r[2]): float(r[3]) for r in rows[1:]}
        assert values[("normal:0,1", "normal:0,1")] == pytest.approx(0.5, abs=1e-3)

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            render_tables(self._tableset(), "xml")


class TestRunSweep:
    def test_requires_sweep_spec(self):
        with pytest.raises(ValueError, match="sweep"):
            run_sweep(Scenario(distributions=TABLE_DISTS[:2]))

    def test_rows_are_lexicographic(self):
        s = Scenario(sweep=SweepSpec(fixed="normal:0,1", mu2=(0, 1, 0.5),
                                     sigma2=(0.5, 1.0, 0.25)), quadrature=LIGHT)
        rows = run_sweep(s)
        keys = [(r[0], r[1]) for r in rows]
        assert keys == sorted(keys)
        assert len(rows) == 3 * 3

    def test_values_bounded(self):
        s = Scenario(sweep=SweepSpec(fixed="normal:0,1", mu2=(0, 2, 1),
                                     sigma2=(0.5, 1.5, 0.5), measure="incstr"),
                     quadrature=LIGHT)
        rows = run_sweep(s)
        assert all(0.0 <= v <= 1.0 for _, _, v in rows)

    def test_diagonal_cell_matches_closed_form(self):
        # the (mu2, sigma2) = (0, 1) cell against a fixed normal:0,1 is the
        # self-inclusion degree 1/2 + 1/pi
        s = Scenario(sweep=SweepSpec(fixed="normal:0,1", mu2=(0, 0, 1),
                                     sigma2=(1, 1, 1)), quadrature=QuadratureConfig())
        rows = run_sweep(s)
        assert rows[0][2] == pytest.approx(0.5 + 1.0 / math.pi, abs=5e-3)

    def test_known_off_grid_cell(self):
        # strict inclusion of normal:0,1 in normal:3,1.5 sits near 0.0406
        s = Scenario(sweep=SweepSpec(fixed="normal:0,1", mu2=(3, 3, 1),
                                     sigma2=(1.5, 1.5, 1), measure="incstr"),
                     quadrature=QuadratureConfig())
        rows = run_sweep(s)
        assert rows[0][2] == pytest.approx(0.040589, abs=1e-3)

    def test_direction_flips_operands(self):
        spec = dict(fixed="normal:0,1", mu2=(0, 0, 1), sigma2=(0.5, 0.5, 1),
                    measure="incstr")
        v12 = run_sweep(Scenario(sweep=SweepSpec(**spec, direction="1in2"),
                                 quadrature=LIGHT))[0][2]
        v21 = run_sweep(Scenario(sweep=SweepSpec(**spec, direction="2in1"),
                                 quadrature=LIGHT))[0][2]
        assert v12 == pytest.approx(0.1423785, abs=1e-3)
        assert v21 == pytest.approx(0.8576215, abs=1e-3)

    def test_self_inclusion_peaks_on_unit_sigma_subgrid(self):
        # on the sigma2 >= 1 subgrid the reversed self-inclusion surface
        # peaks at the matching cell (mu2, sigma2) = (0, 1)
        s = Scenario(sweep=SweepSpec(fixed="normal:0,1", mu2=(0, 4, 1),
                                     sigma2=(1, 3, 0.5), direction="2in1"),
                     quadrature=LIGHT)
        rows = run_sweep(s)
        best = max(rows, key=lambda r: r[2])
        assert (best[0], best[1]) == (0.0, 1.0)

    def test_csv_format(self):
        rows = [(0.0, 0.5, 0.123456789), (0.1, 0.5, 1e-7)]
        text = sweep_csv(rows)
        lines = text.split("\n")
        assert lines[0] == "mu2,sigma2,value"
        assert lines[1] == "0,0.5,0.123457"
        assert lines[2] == "0.1,0.5,1e-07"
        assert text.endswith("\n")
        assert "\r" not in text

    def test_sweep_output_is_byte_identical_across_runs(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            s = Scenario(sweep=SweepSpec(fixed="normal:0,1", mu2=(0, 1, 0.5),
                                         sigma2=(0.5, 1, 0.5)),
                         quadrature=LIGHT, output_path=str(out))
            run_sweep(s)
        assert out1.read_bytes() == out2.read_bytes()


class TestCli:
    def test_tables_markdown(self, capsys):
        rc = main(["tables", "--dists", "normal:0,1", "normal:0,0.5",
                   "--measures", "incstr", "--grid", "128"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "### incstr" in out
        assert "normal:0,0.5" in out

    def test_tables_csv_to_file(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        rc = main(["tables", "--dists", "normal:0,1", "exp:2", "--measures",
                   "incstr,incpar", "--format", "csv", "--grid", "128",
                   "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out == ""
        rows = list(csv.reader(io.StringIO(out.read_text())))
        assert rows[0] == ["measure", "f_i", "f_j", "value"]
        assert {r[0] for r in rows[1:]} == {"incstr", "incpar"}

    def test_distance_command(self, capsys):
        rc = main(["distance", "--dists", "normal:0,1", "normal:4,1",
                   "--grid", "128"])
        assert rc == 0
        assert "### distance" in capsys.readouterr().out

    def test_sweep_writes_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--fixed", "normal:0,1", "--mu2", "0:1:0.5",
                   "--sigma2", "0.5:1:0.5", "--measure", "incpar",
                   "--direction", "1in2", "--grid", "128", "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "mu2,sigma2,value"
        assert len(lines) == 1 + 3 * 2

    def test_sweep_rejects_malformed_range(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--fixed", "normal:0,1", "--mu2", "0-1-0.5",
                  "--sigma2", "0.5:1:0.5"])

    def test_bad_distribution_is_reported(self, capsys):
        rc = main(["tables", "--dists", "normal:0,1", "weird:1"])
        assert rc == 2
        assert "weird" in capsys.readouterr().err

    def test_discrete_conf(self, tmp_path, capsys):
        f1 = tmp_path / "m1.bba"
        f2 = tmp_path / "m2.bba"
        f1.write_text("a:0.5\na|b:0.5\n")
        f2.write_text("a|b:1.0\n")
        rc = main(["discrete", "conf", "--m1", str(f1), "--m2", str(f2)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "d_inc_1in2 = 1" in out
        assert "d_inc_2in1 = 0.5" in out
        assert "sigma_inc = 1" in out
        assert "conflict = 0" in out

    def test_discrete_conf_union_frame(self, tmp_path, capsys):
        # files over different label sets are compared on the union frame
        f1 = tmp_path / "m1.bba"
        f2 = tmp_path / "m2.bba"
        f1.write_text("a:1.0\n")
        f2.write_text("b:1.0\n")
        rc = main(["discrete", "conf", "--m1", str(f1), "--m2", str(f2)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "jousselme = 1" in out
        assert "conflict = 1" in out

    def test_discrete_conf_missing_file(self, capsys):
        rc = main(["discrete", "conf", "--m1", "/nonexistent.bba",
                   "--m2", "/nonexistent2.bba"])
        assert rc == 2
        assert "error" in capsys.readouterr().err
