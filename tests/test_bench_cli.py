import csv
import json
import os

import pytest

from icecomp.bench import (REPORT_COLUMNS, SweepSpec, emit_plotdata,
                           read_rows, run_depth_sweep, run_energy_bench,
                           run_qaoa_bench, write_manifest, write_rows)
from icecomp.cli import main
from icecomp.faults import enumerate_fault_locations
from icecomp.gadgets import GadgetKind, build_gadget
from icecomp.maxcut import GraphKind, make_graph, write_graph
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

    def test_regular3_densities_rejected(self):
        with pytest.raises(ValueError, match="3-regular sweep takes no"):
            SweepSpec(family=GraphKind.REGULAR_3, densities=(0.1, 0.2))
        assert SweepSpec(family=GraphKind.ERDOS_RENYI,
                         densities=(0.1, 0.2)).densities == (0.1, 0.2)

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

    @pytest.mark.parametrize("as_text", [False, True])
    def test_x_sorted_numerically(self, as_text):
        # CSV rows carry k as text; '14' < '22' < '6' as strings
        rows = [{"bench": "depth", "k": str(k) if as_text else k,
                 "mode": mode, "depth_2q": 10 * k}
                for k in (22, 6, 14) for mode in ("resynth", "baseline")]
        text = emit_plotdata(rows, "depth-vs-k")
        lines = [l.split()[:2] for l in text.splitlines()
                 if not l.startswith("#")]
        assert lines == [[k, mode] for k in ("6", "14", "22")
                         for mode in ("baseline", "resynth")]

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

    @pytest.mark.parametrize("argv, message", [
        (["gen", "--k", "-4", "--out", "g.txt"], "at least 2, got -4"),
        (["bench-depth", "--sizes", "-6", "--out", "d.csv"],
         "at least 2, got -6"),
        (["bench-qaoa", "--sizes", "6", "0", "--out", "d.csv"],
         "at least 2, got 0"),
        (["bench-depth", "--sizes", "6", "--num-seeds", "-1",
          "--out", "d.csv"], "at least 1, got -1"),
        (["bench-energy", "--sizes", "6", "--num-seeds", "0",
          "--out", "d.csv"], "at least 1, got 0"),
        (["verify-ft", "--gadget", "init_new", "--k", "-4"],
         "at least 2, got -4"),
        (["verify-ft", "--gadget", "init_new", "--perms", "-2"],
         "at least 0, got -2"),
        (["simulate", "--circuit", "c.txt", "--seed", "-1",
          "--out", "s.csv"], "at least 0, got -1"),
    ])
    def test_counts_below_bound_rejected(self, tmp_path, capsys, argv,
                                         message):
        with pytest.raises(SystemExit) as exc:
            main(["--out-dir", str(tmp_path), *argv])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("argv, message", [
        (["gen", "--kind", "er", "--k", "6", "--out", "g.txt"],
         "density must be in [0, 1], got None"),
        (["bench-depth", "--sizes", "6", "5", "--out", "d.csv"],
         "needs an even k >= 4, got 5"),
        (["bench-qaoa", "--sizes", "2", "--out", "d.csv"],
         "needs an even k >= 4, got 2"),
        (["bench-energy", "--family", "er", "--sizes", "6",
          "--out", "d.csv"], "density must be in [0, 1], got None"),
        (["bench-depth", "--sizes", "6", "--densities", "0.1", "0.2",
          "--out", "d.csv"], "a 3-regular sweep takes no densities"),
        (["bench-energy", "--sizes", "6", "--scales", "-1", "--out", "e.csv"],
         "scale must be finite and nonnegative"),
        (["bench-energy", "--sizes", "6", "--scales", "0.5", "nan",
          "--out", "e.csv"], "scale must be finite and nonnegative"),
    ])
    def test_instance_arguments_rejected(self, tmp_path, capsys, monkeypatch,
                                         argv, message):
        def no_compile(*args, **kwargs):
            raise AssertionError("compiled before rejecting an argument")

        monkeypatch.setattr("icecomp.bench.compile_mode", no_compile)
        assert main(["--out-dir", str(tmp_path), *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"icecomp {argv[0]}: error: ")
        assert message in err and err.count("\n") == 1
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("graph, flags, message", [
        # an odd k, as `gen --kind er --k 5` writes
        (make_graph(5, [(0, 1), (1, 2), (3, 4)]), [],
         "k must be even"),
        # NEW syndromes need k+2 divisible by 4
        (make_graph(16, [(i, i + 1) for i in range(15)]),
         ["--syndromes", "1"], "k+2 divisible by 4"),
        (make_graph(6, [(0, 1), (2, 3)], weights=[2.0, 1.0]),
         ["--z2", "--resynth"], "needs an unweighted instance"),
    ])
    def test_compile_config_rejected(self, tmp_path, capsys, monkeypatch,
                                     graph, flags, message):
        def no_compile(*args, **kwargs):
            raise AssertionError("compiled before rejecting the config")

        monkeypatch.setattr("icecomp.cli.compile_baseline", no_compile)
        monkeypatch.setattr("icecomp.cli.compile_cooptimized", no_compile)
        path = tmp_path / "g.txt"
        path.write_text(write_graph(graph))
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), "compile", "--graph", str(path),
                     *flags, "--out", "c.txt", "--report", "r.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("icecomp compile: error: ")
        assert message in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["bench-depth", "bench-qaoa",
                                         "bench-energy"])
    def test_bench_config_rejected(self, tmp_path, capsys, monkeypatch,
                                   command):
        # k=6 compiles, but k=8 cannot take a NEW syndrome: nothing runs
        def no_compile(*args, **kwargs):
            raise AssertionError("compiled before rejecting the config")

        monkeypatch.setattr("icecomp.bench.compile_mode", no_compile)
        assert main(["--out-dir", str(tmp_path), command, "--sizes", "6",
                     "8", "--syndromes", "1", "--out", "d.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"icecomp {command}: error: k=8, resynth, "
                              "s=1: new syndrome gadget needs k+2")
        assert err.count("\n") == 1
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("command", ["bench-qaoa", "bench-energy"])
    def test_bench_over_qubit_cap_rejected(self, tmp_path, capsys,
                                           monkeypatch, command):
        # k=12 compiles to 16 qubits, k=14 to 18: over the sampler's cap,
        # so nothing runs and no file or --out-dir is made
        def no_compile(*args, **kwargs):
            raise AssertionError("compiled before rejecting the size")

        monkeypatch.setattr("icecomp.bench.compile_mode", no_compile)
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), command, "--sizes", "12", "14",
                     "--syndromes", "0", "--out", "q.csv"]) == 2
        err = capsys.readouterr().err
        assert err == (f"icecomp {command}: error: k=14: 18 qubits exceeds "
                       "the dense-simulation cap 16\n")
        assert not out.exists()

    def test_simulate_without_logicals(self, tmp_path):
        # a circuit file with no 'logical' lines decodes nothing: the
        # decoded column is empty, also for accepted shots
        circ = tmp_path / "c.txt"
        circ.write_text("qubits 2 clbits 2\nh 0\ncx 0 1\nmz 0 0\nmz 1 1\n"
                        "check c0 c1 = 0\n")
        out = tmp_path / "s.csv"
        self.run("--out-dir", str(tmp_path), "simulate", "--circuit",
                 str(circ), "--shots", "20", "--out", str(out))
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 20
        assert {row["accepted"] for row in rows} == {"1"}
        assert {row["decoded"] for row in rows} == {""}

    def test_report_unknown_figure(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--out-dir", str(tmp_path), "report", "--csv", "d.csv",
                  "--figure", "nope"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'nope'" in err and "depth-vs-k" in err

    # input files: None is a missing file; a graph, params and a circuit
    # that parse are written for the arguments a case does not test
    GOOD_INPUTS = {"g.txt": write_graph(make_graph(4, [(0, 1), (2, 3)])),
                   "p.txt": "p 1\ngammas: [0.1]\nbetas: [0.2]\n",
                   "c.txt": "qubits 1 clbits 1\nh 0\nmz 0 0\n",
                   "d.csv": ",".join(REPORT_COLUMNS) + "\n"}

    @pytest.mark.parametrize("argv, files, message", [
        (["compile", "--graph", "g.txt"], {"g.txt": "graph 4 1\nedge 0 9\n"},
         "g.txt: line 2: edge (0,9) out of range"),
        (["compile", "--graph", "g.txt"], {"g.txt": None},
         "No such file or directory: "),
        (["compile", "--graph", "g.txt", "--params", "p.txt"],
         {"p.txt": None}, "No such file or directory: "),
        (["compile", "--graph", "g.txt", "--params", "p.txt"],
         {"p.txt": "p 1\ngammas: [0.1\n"}, "p.txt: line 2: "),
        (["simulate", "--circuit", "c.txt"], {"c.txt": "qubits 2 clbits x\n"},
         "c.txt: line 1: cannot parse 'qubits 2 clbits x'"),
        (["simulate", "--circuit", "c.txt"],
         {"c.txt": "qubits 1 clbits 1\nh 0\nmz 0 0\ncheck c5 = 0\n"},
         "c.txt: line 4: c5 is not a clbit of the circuit, which has 1"),
        (["simulate", "--circuit", "c.txt"],
         {"c.txt": "qubits 17 clbits 1\nh 0\nmz 0 0\n"},
         "17 qubits exceeds the dense-simulation cap 16"),
        (["simulate", "--circuit", "c.txt", "--noise", "n.txt"],
         {"n.txt": None}, "No such file or directory: "),
        (["simulate", "--circuit", "c.txt", "--noise", "n.txt"],
         {"n.txt": "p2 2\n"}, "n.txt: line 1: p2: p2 must be in [0, 1]"),
        (["simulate", "--circuit", "c.txt", "--graph", "g.txt"],
         {"g.txt": None}, "No such file or directory: "),
        (["simulate", "--circuit", "c.txt", "--graph", "g.txt"],
         {"c.txt": "qubits 1 clbits 1\nh 0\nmz 0 0\nlogical 1 = c0\n"},
         "g.txt has 4 vertices, but c.txt has 1 'logical' lines"),
        (["bench-qaoa", "--sizes", "6", "--noise", "n.txt"],
         {"n.txt": None}, "No such file or directory: "),
        (["report", "--csv", "d.csv", "--figure", "depth-vs-k"],
         {"d.csv": None}, "No such file or directory: "),
        (["report", "--csv", "d.csv", "--figure", "depth-vs-k"], {},
         "d.csv: no rows to plot"),
        (["report", "--csv", "d.csv", "--figure", "ar-vs-p"],
         {"d.csv": ",".join(REPORT_COLUMNS) + "\ndepth" +
          "," * (len(REPORT_COLUMNS) - 1) + "\n"},
         "d.csv: no rows for figure 'ar-vs-p'"),
    ], ids=["compile-graph-malformed", "compile-graph-missing",
            "compile-params-missing", "compile-params-malformed",
            "simulate-circuit-malformed", "simulate-check-bit-range",
            "simulate-over-qubit-cap",
            "simulate-noise-missing", "simulate-noise-malformed",
            "simulate-graph-missing", "simulate-graph-size",
            "bench-noise-missing",
            "report-csv-missing", "report-no-rows", "report-no-figure-rows"])
    def test_input_file_error(self, tmp_path, capsys, monkeypatch, argv,
                              files, message):
        # one line on stderr, exit 2, and no output file
        def no_compile(*args, **kwargs):
            raise AssertionError("compiled despite a bad input file")

        monkeypatch.setattr("icecomp.bench.compile_mode", no_compile)
        monkeypatch.chdir(tmp_path)
        for name, text in {**self.GOOD_INPUTS, **files}.items():
            if text is not None:
                (tmp_path / name).write_text(text)
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), *argv, "--out", "result"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"icecomp {argv[0]}: error: ")
        assert message in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["gen", "--k", "6", "--out", "nodir/g.txt"],
        ["gen", "--k", "6", "--out", "g.txt", "--params-out", "nodir/p.txt"],
        ["compile", "--graph", "g.txt", "--gadgets", "old",
         "--out", "nodir/c.txt"],
        ["compile", "--graph", "g.txt", "--gadgets", "old", "--out", "c.txt",
         "--report", "nodir/r.csv"],
        ["simulate", "--circuit", "c.txt", "--out", "nodir/s.csv"],
        ["bench-depth", "--sizes", "6", "--out", "nodir/d.csv"],
        ["verify-ft", "--gadget", "init_new", "--k", "4",
         "--csv", "nodir/ft.csv"],
        ["report", "--csv", "d.csv", "--figure", "depth-vs-k",
         "--out", "nodir/plot.txt"],
    ], ids=["gen-out", "gen-params-out", "compile-out", "compile-report",
            "simulate-out", "bench-out", "verify-ft-csv", "report-out"])
    def test_output_path_error(self, tmp_path, capsys, monkeypatch, argv):
        # one line on stderr, exit 2, nothing computed and no output left
        # behind, not even an output whose own path was good
        def no_compile(*args, **kwargs):
            raise AssertionError("compiled despite an unwritable output")

        def no_shot(*args, **kwargs):
            raise AssertionError("sampled despite an unwritable output")

        for name in ("compile_baseline", "compile_cooptimized"):
            monkeypatch.setattr(f"icecomp.cli.{name}", no_compile)
        monkeypatch.setattr("icecomp.bench.compile_mode", no_compile)
        monkeypatch.setattr("icecomp.simulator._Streams.at", no_shot)
        monkeypatch.chdir(tmp_path)
        for name, text in self.GOOD_INPUTS.items():
            (tmp_path / name).write_text(text)
        row = dict.fromkeys(REPORT_COLUMNS, "")
        row.update(bench="depth", k="6", mode="baseline", depth_2q="10")
        write_rows([row], str(tmp_path / "d.csv"))
        inputs = set(os.listdir(tmp_path))
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"icecomp {argv[0]}: error: ")
        assert "No such file or directory: 'nodir/" in err
        assert err.count("\n") == 1
        assert not out.exists()
        assert set(os.listdir(tmp_path)) == inputs

    @pytest.mark.parametrize("argv", [
        ["gen", "--k", "3", "--out", "g.txt"],
        ["simulate", "--circuit", "missing.txt", "--out", "s.csv"],
    ], ids=["gen-bad-k", "simulate-missing-circuit"])
    def test_out_dir_made_only_with_outputs(self, tmp_path, monkeypatch,
                                            argv):
        # a command that fails on its inputs leaves no --out-dir behind;
        # one that writes its outputs makes it
        monkeypatch.chdir(tmp_path)
        assert main(["--out-dir", "new", *argv]) == 2
        assert not os.listdir(tmp_path)
        assert main(["--out-dir", "new", "gen", "--k", "4",
                     "--out", "g.txt"]) == 0
        assert os.listdir(tmp_path / "new") == ["g.txt"]

    def test_output_check_keeps_existing_files(self, tmp_path):
        # a good output that exists already keeps its text when a later
        # output fails, and a compile report that exists but is empty
        # still gets its header
        (tmp_path / "g.txt").write_text("old graph\n")
        assert main(["--out-dir", str(tmp_path), "gen", "--k", "6",
                     "--out", "g.txt", "--params-out", "nodir/p.txt"]) == 2
        assert (tmp_path / "g.txt").read_text() == "old graph\n"
        (tmp_path / "r.csv").write_text("")
        assert main(["--out-dir", str(tmp_path), "gen", "--k", "6",
                     "--out", "g.txt"]) == 0
        assert main(["--out-dir", str(tmp_path), "compile", "--graph",
                     str(tmp_path / "g.txt"), "--p", "1", "--syndromes",
                     "1", "--queue-cap", "10", "--out", "c.txt",
                     "--report", "r.csv"]) == 0
        with open(tmp_path / "r.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1 and rows[0]["mode"] == "coopt"

    @pytest.mark.parametrize("gadget, k", [("init_new", 3),
                                           ("syndrome_new", 4)])
    def test_verify_ft_unsupported_k(self, tmp_path, capsys, gadget, k):
        assert main(["--out-dir", str(tmp_path), "verify-ft", "--gadget",
                     gadget, "--k", str(k)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("icecomp verify-ft: error: ")
        assert err.count("\n") == 1

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
        # one row per fault of each of the two orders
        faults = len(enumerate_fault_locations(
            build_gadget(GadgetKind.FINAL_NEW, 4).fragment))
        assert len(rows) == 2 * faults
        assert rows[0]["order"] == "default"

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
