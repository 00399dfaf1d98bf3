import csv
import json
import os

import pytest

from icecomp.bench import (REPORT_COLUMNS, SweepSpec, emit_plotdata,
                           read_rows, run_depth_sweep, run_energy_bench,
                           run_qaoa_bench, write_manifest, write_rows)
from icecomp.cli import main
from icecomp.maxcut import GraphKind
from icecomp.simulator import NoiseModel


@pytest.fixture
def small_depth_spec():
    return SweepSpec(
        family=GraphKind.REGULAR_3, sizes=(6, 10), seeds=(0, 1), p=2,
        syndromes=(1,), modes=("baseline", "resynth+z2"), queue_cap=60,
    )


class TestSweeps:
    def test_depth_sweep_rows(self, small_depth_spec):
        rows = run_depth_sweep(small_depth_spec)
        assert len(rows) == 2 * 2 * 2
        for row in rows:
            assert set(row) == set(REPORT_COLUMNS)
            assert row["bench"] == "depth"
            assert row["depth_2q"] > 0
        z2 = [r for r in rows if r["mode"] == "resynth+z2"]
        base = [r for r in rows if r["mode"] == "baseline"]
        for zr, br in zip(sorted(z2, key=lambda r: (r["k"], r["seed"])),
                          sorted(base, key=lambda r: (r["k"], r["seed"]))):
            assert zr["depth_2q"] <= br["depth_2q"]

    def test_qaoa_bench_smoke(self):
        spec = SweepSpec(sizes=(6,), seeds=(0,), p=1, syndromes=(1,),
                         modes=("baseline", "resynth+z2"), shots=300,
                         queue_cap=40)
        rows = run_qaoa_bench(spec)
        assert len(rows) == 2
        for row in rows:
            assert 0.0 <= row["psr"] <= 1.0
            assert row["psr_se"] >= 0
            assert row["ar"] == pytest.approx(row["ar_exact"], abs=0.25)

    def test_energy_bench_smoke(self):
        spec = SweepSpec(sizes=(6,), seeds=(0,), p=1, syndromes=(1,),
                         modes=("resynth+z2",), shots=250, queue_cap=40)
        spec.noise_scales = (0.0, 1.0)
        rows = run_energy_bench(spec)
        assert len(rows) == 4  # 2 scales x (encoded, unencoded)
        silent = [r for r in rows if r["noise_scale"] == 0.0]
        for row in silent:
            assert row["tv"] < 0.15   # sampling noise only


class TestPlotData:
    def test_depth_columns(self, small_depth_spec):
        rows = run_depth_sweep(small_depth_spec)
        text = emit_plotdata(rows, "depth-vs-k")
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert len(lines) == 4  # 2 sizes x 2 modes
        fields = lines[0].split()
        assert len(fields) == 7

    def test_unknown_figure_lists_valid(self, small_depth_spec):
        rows = run_depth_sweep(small_depth_spec)
        with pytest.raises(ValueError, match="depth-vs-k"):
            emit_plotdata(rows, "nope")

    def test_empty_rows_error(self):
        with pytest.raises(ValueError, match="no rows"):
            emit_plotdata([], "depth-vs-k")


class TestCsvRoundTrip:
    def test_schema_stable(self, tmp_path, small_depth_spec):
        rows = run_depth_sweep(small_depth_spec)
        path = tmp_path / "rows.csv"
        write_rows(rows, str(path))
        back = read_rows(str(path))
        assert len(back) == len(rows)
        assert list(back[0]) == REPORT_COLUMNS
        text = emit_plotdata(back, "depth-vs-k")
        assert "baseline" in text

    def test_manifest(self, tmp_path):
        path = tmp_path / "m.json"
        write_manifest(str(path), "depth", {"sizes": (6,), "seeds": (0, 1)})
        doc = json.loads(path.read_text())
        assert doc["command"] == "depth"
        assert doc["tool"] == "icecomp"
        assert "version" in doc


class TestCli:
    def run(self, *argv):
        assert main(list(argv)) == 0

    def test_full_pipeline(self, tmp_path):
        out = str(tmp_path)
        g = os.path.join(out, "g.txt")
        p = os.path.join(out, "p.txt")
        circ = os.path.join(out, "c.txt")
        shots = os.path.join(out, "s.csv")
        self.run("--out-dir", out, "gen", "--kind", "regular3", "--k", "6",
                 "--seed", "1", "--p", "2", "--out", g, "--params-out", p)
        self.run("--out-dir", out, "compile", "--graph", g, "--params", p,
                 "--syndromes", "1", "--mode", "coopt", "--z2", "--resynth",
                 "--queue-cap", "50", "--out", circ,
                 "--report", os.path.join(out, "rep.csv"))
        self.run("--out-dir", out, "simulate", "--circuit", circ,
                 "--graph", g, "--shots", "50", "--seed", "2", "--out", shots)
        with open(shots) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 50
        assert {"shot", "accepted", "decoded", "energy"} <= set(rows[0])

    @pytest.mark.parametrize("command", ["simulate", "bench-qaoa"])
    def test_shots_below_one_rejected(self, tmp_path, capsys, command):
        extra = (["--circuit", "c.txt"] if command == "simulate"
                 else ["--sizes", "6"])
        with pytest.raises(SystemExit) as exc:
            main(["--out-dir", str(tmp_path), command, *extra,
                  "--shots", "0", "--out", "x.csv"])
        assert exc.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [
        (command, flag)
        for command in ("compile", "bench-depth", "bench-qaoa",
                        "bench-energy")
        for flag in ("--p", "--syndromes", "--queue-cap")
    ])
    def test_negative_counts_rejected(self, tmp_path, capsys, command, flag):
        extra = (["--graph", "g.txt"] if command == "compile"
                 else ["--sizes", "6"])
        with pytest.raises(SystemExit) as exc:
            main(["--out-dir", str(tmp_path), command, *extra,
                  flag, "-1", "--out", "x.txt"])
        assert exc.value.code == 2
        assert "must be at least 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--z2", "--resynth"])
    def test_baseline_rejects_coopt_flags(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["--out-dir", str(tmp_path), "compile", "--graph", "g.txt",
                  "--mode", "baseline", flag, "--out", "c.txt"])
        assert exc.value.code == 2
        assert "--mode baseline takes neither" in capsys.readouterr().err

    def test_verify_ft_cli(self, tmp_path):
        self.run("--out-dir", str(tmp_path), "verify-ft", "--gadget",
                 "final_new", "--k", "4", "--perms", "1",
                 "--csv", os.path.join(str(tmp_path), "ft.csv"))
        with open(os.path.join(str(tmp_path), "ft.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["classification"] != "logical" for r in rows)

    def test_bench_and_report_cli(self, tmp_path):
        out = str(tmp_path)
        csv_path = os.path.join(out, "d.csv")
        self.run("--out-dir", out, "bench-depth", "--sizes", "6",
                 "--num-seeds", "1", "--p", "1",
                 "--syndromes", "1", "--modes", "baseline", "resynth+z2",
                 "--queue-cap", "40", "--out", csv_path)
        assert os.path.exists(csv_path + ".manifest.json")
        self.run("--out-dir", out, "report", "--csv", csv_path,
                 "--figure", "depth-vs-k",
                 "--out", os.path.join(out, "plot.txt"))
        with open(os.path.join(out, "plot.txt")) as fh:
            assert "depth-vs-k" in fh.read()

    def test_outdir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ICECOMP_OUTDIR", str(tmp_path))
        from icecomp.bench import default_outdir
        assert default_outdir() == str(tmp_path)
