import collections
import csv
import io
import math
import pathlib
import re
import runpy
import sys

import numpy as np
import pytest

import cbf.experiments
from cbf.cli import build_parser, main
from cbf.consonant import consonant_from_normal
from cbf.experiments import (
    DIRECTIONS,
    MEASURES,
    Scenario,
    SweepSpec,
    grid_values,
    render_tables,
    run_sweep,
    run_tables,
    sweep_csv,
)
from cbf.measures import distance, inc_strict
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

    def test_checks_operands_at_its_own_truncation(self):
        # sigma = 1e306 fits the default k = 8 but its focal overflows at k = 1000
        with pytest.raises(ValueError, match="truncation_k = 1000"):
            Scenario(distributions=("normal:0,1e306", "normal:0,1"),
                     quadrature=QuadratureConfig(truncation_k=1000.0))
        with pytest.raises(ValueError, match="truncation_k = 1000"):
            Scenario(sweep=SweepSpec(fixed="normal:0,1e306", mu2=(0, 0, 1), sigma2=(1, 1, 1)),
                     quadrature=QuadratureConfig(truncation_k=1000.0))

    @pytest.mark.parametrize("mu2", [(0.0, 1e308, 1e308), (1e308, 1e308, 1.0)])
    def test_sweep_checks_its_extreme_offsets(self, mu2):
        # the offset to the fixed operand overflows at the last (or only) mu2:
        # rejected up front rather than after the cells before it
        with pytest.raises(ValueError, match="location offset between normal:-1e\\+308,1 and normal:1e\\+308,1"):
            Scenario(sweep=SweepSpec(fixed="normal:-1e308,1", mu2=mu2, sigma2=(1, 1, 1), measure="incstr"))

    @pytest.mark.parametrize("sigma2, bad", [((1e307, 2e307, 1e307), "2e+307"),
                                             ((1e-310, 1, 1), "1e-310")])
    def test_sweep_checks_its_extreme_scales(self, sigma2, bad):
        # rejected up front rather than partway through the grid
        with pytest.raises(ValueError, match=f"sigma = {re.escape(bad)} gives scale"):
            Scenario(sweep=SweepSpec(fixed="normal:0,1", mu2=(0, 0, 1), sigma2=sigma2))

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
                      measure="entropy")
        with pytest.raises(ValueError):
            SweepSpec(fixed="normal:0,1", mu2=(0, 1, 1), sigma2=(0.5, 1, 0.5),
                      direction="both")

    @pytest.mark.parametrize("mu2,sigma2", [
        ((0, math.inf, 1), (1, 1, 1)),
        ((math.nan, 1, 1), (1, 1, 1)),
        ((0, 1, 1), (1, 1, math.inf)),
        ((-math.inf, 1, 1), (1, 1, 1)),
        # finite bounds, but an unbounded or oversized cell count
        ((0, 1e300, 1e-300), (1, 1, 1)),
        ((0, 1e9, 1), (1, 1, 1)),
    ])
    def test_sweep_rejects_non_finite_bounds(self, mu2, sigma2):
        with pytest.raises(ValueError, match="must be finite"):
            SweepSpec(fixed="normal:0,1", mu2=mu2, sigma2=sigma2)


class TestMeasureTable:
    """Tables and sweeps evaluate measures through the names of cbf.experiments.

    Wrappers set on those names (as a benchmark's timers do) must see every
    evaluation, so the table may not hold the measure functions themselves.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = collections.Counter()
        for name in ("inc_strict", "inc_partial", "scalar_product", "distance"):
            def counted(*args, _name=name, _measure=getattr(cbf.experiments, name)):
                counts[_name] += 1
                return _measure(*args)
            monkeypatch.setattr(cbf.experiments, name, counted)
        return counts

    def test_names_and_order(self):
        assert MEASURES == ("incstr", "incpar", "scalar", "distance")

    def test_tables_count_each_pair_once(self, calls):
        run_tables(Scenario(distributions=TABLE_DISTS[:3], measures=MEASURES, quadrature=LIGHT))
        # ordered pairs for the inclusions, i <= j for the Gram matrix, and
        # the distances read off it
        assert calls == {"inc_strict": 9, "inc_partial": 9, "scalar_product": 6}

    def test_distance_table_computes_the_gram_matrix_only(self, calls):
        t = run_tables(Scenario(distributions=TABLE_DISTS[:3], measures=("distance",), quadrature=LIGHT))
        assert calls == {"scalar_product": 6}
        assert list(t.matrices) == ["distance"]

    @pytest.mark.parametrize("measure,name", [("incstr", "inc_strict"), ("incpar", "inc_partial"),
                                              ("scalar", "scalar_product"), ("distance", "distance")])
    def test_sweep_calls_the_named_measure_once_per_cell(self, calls, measure, name):
        spec = SweepSpec(fixed="normal:0,1", mu2=(0, 1, 0.5), sigma2=(0.5, 1, 0.5), measure=measure)
        rows = run_sweep(Scenario(sweep=spec, quadrature=LIGHT))
        assert len(rows) == 6
        assert calls == {name: 6}


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

    def test_spec_listed_twice_is_at_distance_zero_from_itself(self):
        # the off-diagonal product of two equal operands is read from the same
        # cache as the diagonal's
        spec = "normal:-3.0082,3.26365"
        t = run_tables(Scenario(distributions=(spec, spec), measures=("distance",),
                                quadrature=QuadratureConfig(truncation_k=40.0)))
        f, g = (consonant_from_normal(-3.0082, 3.26365, 40.0) for _ in range(2))
        assert t.matrices["distance"][0, 1] == t.matrices["distance"][1, 0] == distance(f, g) == 0.0

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
        rc = main(["tables", "--dists", *TABLE_DISTS[:2], "--measures", "incstr",
                   "--out", str(out)])
        assert rc == 0
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

    @pytest.mark.parametrize("measure", ["scalar", "distance"])
    def test_symmetric_measures_agree_in_both_directions(self, measure):
        spec = dict(fixed="normal:0,1", mu2=(0, 2, 1), sigma2=(0.5, 1.5, 0.5), measure=measure)
        v12, v21 = (run_sweep(Scenario(sweep=SweepSpec(**spec, direction=d))) for d in DIRECTIONS)
        assert [r[:2] for r in v12] == [r[:2] for r in v21]
        np.testing.assert_allclose([r[2] for r in v12], [r[2] for r in v21], rtol=0, atol=1e-12)
        # the (0, 1) cell pairs N(0,1) with itself: <f,f> = 2/pi, d = 0
        self_value = {r[:2]: r[2] for r in v12}[(0.0, 1.0)]
        if measure == "distance":
            assert self_value == 0.0
        else:
            assert self_value == pytest.approx(2.0 / math.pi, abs=1e-10)

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
            rc = main(["sweep", "--fixed", "normal:0,1", "--mu2", "0:1:0.5",
                       "--sigma2", "0.5:1:0.5", "--out", str(out)])
            assert rc == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestCli:
    def test_tables_markdown(self, capsys):
        rc = main(["tables", "--dists", "normal:0,1", "normal:0,0.5",
                   "--measures", "incstr"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "### incstr" in out
        assert "normal:0,0.5" in out

    def test_tables_csv_to_file(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        rc = main(["tables", "--dists", "normal:0,1", "exp:2", "--measures",
                   "incstr,incpar", "--format", "csv",
                   "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out == ""
        rows = list(csv.reader(io.StringIO(out.read_text())))
        assert rows[0] == ["measure", "f_i", "f_j", "value"]
        assert {r[0] for r in rows[1:]} == {"incstr", "incpar"}

    def test_distance_is_a_measure_not_a_subcommand(self):
        with pytest.raises(SystemExit):
            main(["distance", "--dists", "normal:0,1", "normal:4,1"])

    def test_sweep_writes_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--fixed", "normal:0,1", "--mu2", "0:1:0.5",
                   "--sigma2", "0.5:1:0.5", "--measure", "incpar",
                   "--direction", "1in2", "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "mu2,sigma2,value"
        assert len(lines) == 1 + 3 * 2

    def test_sweep_distance_surface(self, capsys):
        rc = main(["sweep", "--fixed", "normal:0,1", "--mu2", "0:1:1",
                   "--sigma2", "1:1:1", "--measure", "distance"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[:2] == ["mu2,sigma2,value", "0,1,0"]

    def test_sweep_measure_choices_are_the_table(self):
        for measure in MEASURES:
            args = build_parser().parse_args(["sweep", "--fixed", "normal:0,1", "--mu2", "0:1:1",
                                              "--sigma2", "1:1:1", "--measure", measure])
            assert args.measure == measure
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--fixed", "normal:0,1", "--mu2", "0:1:1",
                                       "--sigma2", "1:1:1", "--measure", "conflict"])

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

    def test_discrete_conf_zero_mass_label(self, tmp_path, capsys):
        # a label named only on a zero-mass line joins the frame harmlessly
        f1 = tmp_path / "m1.bba"
        f2 = tmp_path / "m2.bba"
        f1.write_text("a:1.0\nz:0\n")
        f2.write_text("a|b:1.0\n")
        rc = main(["discrete", "conf", "--m1", str(f1), "--m2", str(f2)])
        assert rc == 0
        assert "d_inc_1in2 = 1" in capsys.readouterr().out

    def test_discrete_conf_matches_the_library(self, tmp_path, capsys):
        # the report derives sigma_inc and conflict from one evaluation of
        # each kernel; it must print what the library functions return
        from cbf.discrete import conflict, d_inc, jousselme_distance, parse_bba, sigma_inc

        texts = ("a:0.3\nb|c:0.2\na|b|c:0.4\nd:0.1\n", "b:0.25\na|c:0.35\nc|d:0.4\n")
        for name, text in zip(("m1.bba", "m2.bba"), texts):
            (tmp_path / name).write_text(text)
        rc = main(["discrete", "conf", "--m1", str(tmp_path / "m1.bba"), "--m2", str(tmp_path / "m2.bba")])
        assert rc == 0
        m1, m2 = (parse_bba(text, ("a", "b", "c", "d")) for text in texts)
        assert 0.0 < conflict(m1, m2) < jousselme_distance(m1, m2)
        assert capsys.readouterr().out == (
            f"d_inc_1in2 = {d_inc(m1, m2):.6g}\nd_inc_2in1 = {d_inc(m2, m1):.6g}\n"
            f"sigma_inc = {sigma_inc(m1, m2):.6g}\njousselme = {jousselme_distance(m1, m2):.6g}\n"
            f"conflict = {conflict(m1, m2):.6g}\n")

    def test_discrete_conf_missing_file(self, capsys):
        rc = main(["discrete", "conf", "--m1", "/nonexistent.bba",
                   "--m2", "/nonexistent2.bba"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("mu2", ["0:inf:1", "nan:1:1", "0:1e300:1e-300", "0:1e9:1"])
    def test_sweep_rejects_non_finite_range(self, mu2, capsys):
        rc = main(["sweep", "--fixed", "normal:0,1", "--mu2", mu2, "--sigma2", "1:1:1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert re.search(r"error: (mu2 range bounds|sweep cell count \S+) must be finite", err)

    @pytest.mark.parametrize("k", ["inf", "nan", "1e4"])
    def test_rejects_truncation_outside_range(self, k, capsys):
        rc = main(["sweep", "--fixed", "normal:0,1", "--mu2", "0:0:1",
                   "--sigma2", "1:1:1", "--trunc-k", k])
        assert rc == 2
        assert "error: truncation_k must be in (0, 1000]" in capsys.readouterr().err

    def test_non_finite_estimate_is_reported(self, capsys):
        # a scale below the smallest normal float would give non-finite
        # estimates, so it is rejected before any quadrature runs
        rc = main(["tables", "--dists", "normal:0,1e-310", "normal:0,1",
                   "--measures", "incstr,incpar,scalar"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: sigma = 1e-310 gives scale" in captured.err

    def test_operands_are_checked_at_the_given_truncation(self, capsys):
        # at truncation_k = 1 the focal [-2e307, 2e307] is finite; the value
        # depends only on the scale ratio
        rc = main(["tables", "--dists", "normal:0,2e307", "normal:0,1e307",
                   "--trunc-k", "1", "--measures", "incstr", "--format", "csv"])
        assert rc == 0
        small = inc_strict(consonant_from_normal(0.0, 2.0, 1.0), consonant_from_normal(0.0, 1.0, 1.0))
        assert f'incstr,"normal:0,2e+307","normal:0,1e+307",{small.value:.6g}\n' in capsys.readouterr().out

    def test_sweep_offset_that_overflows_is_reported_before_any_cell(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cbf.experiments, "inc_strict", lambda *args: calls.append(args))
        rc = main(["sweep", "--fixed", "normal:-1e308,1", "--mu2", "0:1e308:1e308", "--sigma2", "1:1:1",
                   "--measure", "incstr"])
        assert rc == 2
        assert calls == []
        assert "error: location offset between normal:-1e+308,1 and normal:1e+308,1" in capsys.readouterr().err

    def test_sigma_whose_focal_overflows_is_reported(self, capsys):
        # at truncation_k = 8 the focal [-8 sigma, 8 sigma] is 3.2e308 long
        rc = main(["tables", "--dists", "normal:0,2e307", "normal:1,2e307"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: sigma = 2e+307 gives scale" in captured.err

    @pytest.mark.parametrize("measure", ["incstr", "incpar", "scalar"])
    def test_overflowing_offset_is_reported(self, capsys, measure):
        rc = main(["tables", "--dists", "normal:1e308,1", "normal:-1e308,1", "--measures", measure])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: location offset between normal:1e+308,1 and normal:-1e+308,1" in captured.err


def test_reproduce_tables_script_matches_cli(tmp_path, monkeypatch, capsys):
    script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "reproduce_tables.py"
    from_script, from_cli = tmp_path / "a.csv", tmp_path / "b.csv"
    monkeypatch.setattr(sys, "argv", [str(script), "--format", "csv", "--out", str(from_script)])
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(str(script), run_name="__main__")
    assert stop.value.code == 0
    rc = main(["tables", "--dists", *TABLE_DISTS, "--measures", "incstr,incpar,scalar,distance",
               "--format", "csv", "--out", str(from_cli)])
    assert rc == 0
    assert from_script.read_bytes() == from_cli.read_bytes()


def test_desk_sweeps_reproduce_the_committed_surfaces(tmp_path, monkeypatch, capsys):
    # tests/data/desk_*.csv pin the three desk surfaces of scripts/run_sweeps.py
    root = pathlib.Path(__file__).resolve().parents[1]
    script = root / "scripts" / "run_sweeps.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--out-dir", str(tmp_path)])
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(str(script), run_name="__main__")
    assert stop.value.code == 0
    for name in ("strict_1in2", "partial_1in2", "partial_2in1"):
        expected = (root / "tests" / "data" / f"desk_{name}.csv").read_bytes()
        assert (tmp_path / f"{name}.csv").read_bytes() == expected, name


def test_reproduce_tables_matches_the_committed_tables(tmp_path, monkeypatch, capsys):
    # tests/data/reference_tables.csv pins scripts/reproduce_tables.py --format csv
    root = pathlib.Path(__file__).resolve().parents[1]
    script, out = root / "scripts" / "reproduce_tables.py", tmp_path / "tables.csv"
    monkeypatch.setattr(sys, "argv", [str(script), "--format", "csv", "--out", str(out)])
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(str(script), run_name="__main__")
    assert stop.value.code == 0
    assert out.read_bytes() == (root / "tests" / "data" / "reference_tables.csv").read_bytes()


def test_stress_tables_match_the_committed_tables(tmp_path, capsys):
    # tests/data/stress_tables.csv pins every continuous measure of
    # scale-separated operands, an exponential among them
    root = pathlib.Path(__file__).resolve().parents[1]
    out = tmp_path / "stress.csv"
    rc = main(["tables", "--dists", "exp:2", "normal:0,0.001", "normal:0.5,1", "normal:0,1",
               "--measures", "incstr,incpar,scalar,distance", "--format", "csv", "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == (root / "tests" / "data" / "stress_tables.csv").read_bytes()
