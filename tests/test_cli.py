import hashlib
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rctm
from rctm import analysis, cli, core, dynamics
from rctm.cli import main
from rctm.core import make_key
from rctm.prbg import generate_bits, pack_bytes, segmented_streams, unpack_bits


def run(argv):
    return main([str(a) for a in argv])


class TestGenerate:
    def test_ascii_bits_file(self, tmp_path):
        out = tmp_path / "s.txt"
        assert run(["generate", "--mu", 61.81, "--x0", 0.23, "--bits", 1000,
                    "--format", "ascii-bits", "-o", out]) == 0
        text = out.read_text()
        assert len(text) == 1001 and text.endswith("\n")
        assert set(text[:-1]) <= {"0", "1"}

    def test_invalid_mu_exits_1(self, tmp_path, capsys):
        out = tmp_path / "s.txt"
        code = run(["generate", "--mu", 4.0, "--x0", 0.5, "--bits", 100, "-o", out])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    def test_raw_round_trip_matches_library(self, tmp_path):
        out = tmp_path / "s.bin"
        assert run(["generate", "--mu", 61.81, "--x0", 0.23, "--bits", 8000,
                    "--format", "raw", "-o", out]) == 0
        expected, _ = pack_bytes(generate_bits(make_key(61.81, 0.23), 8000))
        assert out.read_bytes() == expected

    def test_raw_and_ascii_encode_identical_bits(self, tmp_path):
        raw = tmp_path / "s.bin"
        txt = tmp_path / "s.txt"
        args = ["--mu", 61.81, "--x0", 0.23, "--bits", 4096]
        run(["generate", *args, "--format", "raw", "-o", raw])
        run(["generate", *args, "--format", "ascii-bits", "-o", txt])
        from_raw = unpack_bits(raw.read_bytes(), 4096)
        from_txt = np.frombuffer(txt.read_bytes()[:-1], dtype=np.uint8) - ord("0")
        assert np.array_equal(from_raw, from_txt)

    def test_byte_deterministic(self, tmp_path):
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        args = ["--mu", 61.81, "--x0", 0.23, "--bits", 9000, "--format", "raw"]
        run(["generate", *args, "-o", a])
        run(["generate", *args, "-o", b])
        assert a.read_bytes() == b.read_bytes()

    def test_meta_sidecar(self, tmp_path):
        out = tmp_path / "s.bin"
        run(["generate", "--mu", 61.81, "--x0", 0.23, "--bits", 100,
             "--format", "raw", "--meta", "-o", out])
        meta = json.loads((tmp_path / "s.bin.meta.json").read_text())
        assert meta["mu"] == 61.81
        assert meta["mu_hex"] == (61.81).hex()
        assert meta["bits"] == 100
        assert meta["pad_bits"] == 4

    def test_degenerate_orbit_warns_but_writes(self, tmp_path, capsys):
        # x0 = 0.5 collapses to the fixed point 0 after two steps
        out = tmp_path / "s.txt"
        code = run(["generate", "--mu", 61.81, "--x0", 0.5, "--bits", 500,
                    "--format", "ascii-bits", "-o", out])
        assert code == 0
        assert "degenerate" in capsys.readouterr().err
        assert len(out.read_text()) == 501

    def test_hex_float_parameter(self, tmp_path):
        out = tmp_path / "s.txt"
        assert run(["generate", "--mu", "0x1.ee7ae147ae148p+5", "--x0", 0.23,
                    "--bits", 64, "--format", "ascii-bits", "-o", out]) == 0
        ref = tmp_path / "ref.txt"
        run(["generate", "--mu", 61.81, "--x0", 0.23, "--bits", 64,
             "--format", "ascii-bits", "-o", ref])
        assert out.read_text() == ref.read_text()

    def test_unwritable_output_exits_1(self, tmp_path, capsys):
        code = run(["generate", "--mu", 61.81, "--x0", 0.23, "--bits", 100,
                    "-o", tmp_path / "missing_dir" / "s.bin"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestExport:
    def test_segments_and_manifest(self, tmp_path):
        prefix = tmp_path / "seg"
        assert run(["export", "--mu", 61.81, "--x0", 0.23, "--bits", 800,
                    "--segments", 3, "--format", "raw", "-o", prefix]) == 0
        manifest = json.loads((tmp_path / "seg_manifest.json").read_text())
        assert manifest["segments"] == 3
        assert len(manifest["files"]) == 3
        joined = b"".join((tmp_path / f"seg_{i:03d}.bin").read_bytes() for i in range(3))
        whole, _ = pack_bytes(generate_bits(make_key(61.81, 0.23), 2400))
        assert joined == whole

    def test_zero_segments_exits_1(self, tmp_path, capsys):
        prefix = tmp_path / "seg"
        assert run(["export", "--mu", 61.81, "--x0", 0.23, "--bits", 800,
                    "--segments", 0, "-o", prefix]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not list(tmp_path.iterdir())


class TestStreamedWriters:
    """generate and export write each orbit chunk as it arrives; the files are
    those of packing or printing the library's whole stream."""

    # 13 bits fill no default chunk; 2^18 + 3 ends 3 bits into the second;
    # the ends of 37-sample chunks fall inside bytes
    @pytest.mark.parametrize("bits, chunk", [
        pytest.param(13, None, id="13"), pytest.param(2**18 + 3, None, id="262147"),
        pytest.param(13, 37, id="13-chunk37"), pytest.param(2**18 + 3, 37, id="262147-chunk37"),
    ])
    @pytest.mark.parametrize("burn_in", [0, 1000])
    def test_generate_matches_the_library(self, tmp_path, monkeypatch, bits, chunk, burn_in):
        stream = generate_bits(make_key(61.81, 0.23), bits, burn_in)
        if chunk:  # after the library's stream, which keeps the default chunks
            monkeypatch.setattr(core, "_CHUNK", chunk)
        raw, txt = tmp_path / "s.bin", tmp_path / "s.txt"
        for fmt, out in (("raw", raw), ("ascii-bits", txt)):
            assert run(["generate", *KEY, "--bits", bits, "--burn-in", burn_in,
                        "--format", fmt, "--meta", "-o", out]) == 0
        assert raw.read_bytes() == pack_bytes(stream)[0]
        assert txt.read_bytes() == (stream.bits + ord("0")).tobytes() + b"\n"
        assert json.loads((tmp_path / "s.bin.meta.json").read_text())["pad_bits"] == (-bits) % 8
        assert json.loads((tmp_path / "s.txt.meta.json").read_text())["pad_bits"] == 0

    # segment boundaries at bits 300001 and 600002: inside a byte, and inside
    # the second and third default orbit chunks; 37-sample chunks end inside bytes too
    @pytest.mark.parametrize("fmt, ext, pad, chunk", [
        pytest.param("raw", "bin", 7, None, id="raw-bin-7"),
        pytest.param("ascii-bits", "txt", 0, None, id="ascii-bits-txt-0"),
        pytest.param("raw", "bin", 7, 37, id="raw-bin-7-chunk37"),
        pytest.param("ascii-bits", "txt", 0, 37, id="ascii-bits-txt-0-chunk37"),
    ])
    def test_export_segments_cut_mid_byte_and_mid_chunk(self, tmp_path, monkeypatch, fmt, ext,
                                                         pad, chunk):
        streams = segmented_streams(make_key(61.81, 0.23), 3, 300001, burn_in=1000)
        if chunk:  # after the library's streams, which keep the default chunks
            monkeypatch.setattr(core, "_CHUNK", chunk)
        assert run(["export", *KEY, "--bits", 300001, "--segments", 3, "--burn-in", 1000,
                    "--format", fmt, "-o", tmp_path / "seg"]) == 0
        for i, stream in enumerate(streams):
            expected = (pack_bytes(stream)[0] if fmt == "raw"
                        else (stream.bits + ord("0")).tobytes() + b"\n")
            assert (tmp_path / f"seg_{i:03d}.{ext}").read_bytes() == expected
        manifest = json.loads((tmp_path / "seg_manifest.json").read_text())
        assert [f["pad_bits"] for f in manifest["files"]] == [pad] * 3

    @pytest.mark.parametrize("argv", [
        ["generate", "--bits", 0, "--meta"], ["generate", "--bits", -8, "--meta"],
        ["generate", "--bits", 100, "--burn-in", -1, "--meta"],
        ["export", "--bits", 0], ["export", "--bits", -8, "--segments", 2],
        ["export", "--bits", 100, "--burn-in", -1],
        ["export", "--bits", 100, "--segments", 0], ["export", "--bits", 100, "--segments", -2],
        ["test-nist", "--streams", 2, "--bits", -5], ["test-ent", "--bytes", 0],
        ["test-nist", "--streams", 0], ["test-nist", "--burn-in", -2],
        ["test-ent", "--burn-in", -3], ["test-nist", "--streams", 2, "--bits", 100],
    ])
    def test_invalid_counts_exit_1_before_any_file(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert run([*argv, *KEY, "-o", "out"]) == 1
        # test-nist's streams run the whole NIST subset, which needs 128 bits
        floors = {"--bits": 128 if argv[0] == "test-nist" else 1, "--bytes": 1,
                  "--segments": 1, "--streams": 1, "--burn-in": 0}
        [(option, count)] = [(arg, argv[i + 1]) for i, arg in enumerate(argv)
                             if arg in floors and argv[i + 1] < floors[arg]]
        # the option and the value given, not the library's name for it or its
        # product with --segments or --streams
        assert capsys.readouterr().err == f"error: {option} must be >= {floors[option]}, got {count}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["generate", "export"])
    @pytest.mark.parametrize("fmt", ["raw", "ascii-bits"])
    def test_memory_does_not_grow_with_bits(self, tmp_path, command, fmt):
        peaks = []
        for bits in (2 * 10**6, 8 * 10**6):
            tracemalloc.start()
            try:
                assert run([command, *KEY, "--bits", bits, "--format", fmt,
                            "-o", tmp_path / f"out{bits}"]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # holding the stream at one byte per bit would add 6 MB
        assert abs(peaks[1] - peaks[0]) < 2**20


class TestDynamicsCommand:
    def test_bifurcation_csv(self, tmp_path):
        out = tmp_path / "bif.csv"
        assert run(["analyze-dynamics", "--what", "bifurcation",
                    "--mu-min", 2.1, "--mu-max", 10.1, "--grid-points", 5,
                    "--x0", 0.23, "--burn-in", 50, "--iterations", 10,
                    "--format", "csv", "-o", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "mu,x"
        assert len(lines) == 1 + 5 * 10
        mu, x = lines[1].split(",")
        assert 0.0 <= float(x) <= 1.0

    def test_lyapunov_csv(self, tmp_path):
        out = tmp_path / "lyap.csv"
        assert run(["analyze-dynamics", "--what", "lyapunov",
                    "--mu-min", 2.5, "--mu-max", 90.5, "--grid-points", 4,
                    "--iterations", 2000, "--format", "csv", "-o", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "mu,lambda"
        assert len(lines) == 5
        for line in lines[1:]:
            assert float(line.split(",")[1]) > 0

    def test_coverage_json_single_mu(self, tmp_path):
        out = tmp_path / "cov.json"
        assert run(["analyze-dynamics", "--what", "coverage", "--mu", 20.33,
                    "--x0", 0.23, "--iterations", 20000, "--bins", 100,
                    "--format", "json", "-o", out]) == 0
        data = json.loads(out.read_text())
        assert data["points"][0]["coverage"] == 1.0

    def test_coverage_rejects_integer_mu(self, tmp_path, capsys):
        # coverage skips an unsupported mu, as the other analyses do; with none left it exits 1
        out = tmp_path / "cov.csv"
        assert run(["analyze-dynamics", "--what", "coverage", "--mu", 4.0,
                    "--iterations", 1000, "-o", out]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("what", ["bifurcation", "lyapunov", "coverage"])
    def test_integer_grid_values_skipped_and_reported(self, tmp_path, capsys, what, fmt):
        # 2, 3, ..., 10: only the tent arm's 2.0 has a key
        out = tmp_path / f"grid.{fmt}"
        assert run(["analyze-dynamics", "--what", what, "--mu-min", 2, "--mu-max", 10,
                    "--grid-points", 9, "--iterations", 100, "--format", fmt, "-o", out]) == 0
        skipped = [3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        assert capsys.readouterr().err == f"skipped unsupported mu values: {skipped}\n"
        if fmt == "csv":
            rows = out.read_text().splitlines()[1:]
            assert {row.split(",")[0] for row in rows} == {"2.0"}
        else:
            data = json.loads(out.read_text())
            rows = data["estimates"] if what == "lyapunov" else data["points"]
            assert {row[0] if what == "bifurcation" else row["mu"] for row in rows} == {2.0}
            assert data["skipped_mu"] == skipped

    @pytest.mark.parametrize("what", ["bifurcation", "lyapunov", "coverage"])
    def test_no_supported_mu_exits_1_before_any_file(self, tmp_path, monkeypatch, capsys,
                                                     what):
        monkeypatch.chdir(tmp_path)
        assert run(["analyze-dynamics", "--what", what, "--mu", 4.0,
                    "--iterations", 100, "-o", "out.csv"]) == 1
        assert capsys.readouterr().err == "error: no supported mu values in grid\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("option", ["--mu-min", "--mu-max"])
    def test_non_finite_grid_endpoint_exits_1_before_any_file(self, tmp_path, monkeypatch,
                                                              capsys, option, value):
        monkeypatch.chdir(tmp_path)
        # "--mu-min=-inf": a separate "-inf" would read as an option
        assert run(["analyze-dynamics", "--what", "lyapunov", f"{option}={value}",
                    "--iterations", 100, "-o", "out.csv"]) == 1
        assert capsys.readouterr().err == f"error: {option} must be finite, got {value}\n"
        assert not list(tmp_path.iterdir())

    def test_grid_span_beyond_binary64_exits_1_before_any_file(self, tmp_path, monkeypatch,
                                                              capsys):
        monkeypatch.chdir(tmp_path)
        assert run(["analyze-dynamics", "--what", "lyapunov", "--mu-min=-1.7e308",
                    "--mu-max", "1.7e308", "--iterations", 100, "-o", "out.csv"]) == 1
        assert capsys.readouterr().err == "error: --mu-max - --mu-min must be finite, got inf\n"
        assert not list(tmp_path.iterdir())

    def test_nan_single_mu_is_a_grid_with_no_supported_value(self, tmp_path, monkeypatch,
                                                              capsys):
        monkeypatch.chdir(tmp_path)
        assert run(["analyze-dynamics", "--what", "lyapunov", "--mu", "nan",
                    "--iterations", 100, "-o", "out.csv"]) == 1
        assert capsys.readouterr().err == "error: no supported mu values in grid\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("points", [0, -1])
    @pytest.mark.parametrize("what", ["bifurcation", "lyapunov", "coverage"])
    def test_empty_grid_exits_1(self, tmp_path, capsys, what, points):
        out = tmp_path / "grid.csv"
        assert run(["analyze-dynamics", "--what", what, "--grid-points", points,
                    "--iterations", 1000, "-o", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "grid" in err
        assert not out.exists()


class TestBatteries:
    def test_nist_report(self, tmp_path):
        out = tmp_path / "nist.json"
        code = run(["test-nist", "--mu", 61.81, "--x0", 0.23,
                    "--streams", 20, "--bits", 20000, "--burn-in", 1000, "-o", out])
        data = json.loads(out.read_text())
        assert data["battery"] == "nist-subset"
        assert '"alpha": 0.01,' in out.read_text()
        assert {e["test"] for e in data["entries"]} >= {"monobit", "dft", "serial_2"}
        assert code == (0 if data["passed"] else 2)

    def test_ent_report_passes_at_scale(self, tmp_path):
        out = tmp_path / "ent.json"
        code = run(["test-ent", "--mu", 61.81, "--x0", 0.23,
                    "--bytes", 1_000_000, "--burn-in", 1000, "-o", out])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["passed"] is True
        assert data["report"]["entropy_bits_per_byte"] >= 7.999

    def test_ent_degenerate_stream_exits_2(self, tmp_path, capsys):
        out = tmp_path / "ent.json"
        code = run(["test-ent", "--mu", 61.81, "--x0", 0.5,
                    "--bytes", 2048, "--burn-in", 0, "-o", out])
        assert code == 2
        assert "degenerate" in capsys.readouterr().err
        data = json.loads(out.read_text())
        assert data["passed"] is False
        assert data["checks"]["entropy"] is False

    def test_batteries_need_no_scipy(self, tmp_path):
        # SciPy is the tests' oracle only: a plain import of rctm leaves it
        # unloaded, and with it unimportable both batteries write the reports
        # they write here.  The import leaves the executor of the spectral
        # worker unloaded too, until a battery loop runs
        def argvs(where):
            key = ["--mu", "61.81", "--x0", "0.23"]
            return [["test-nist", *key, "--streams", "2", "--bits", "20000",
                     "-o", str(where / "nist.json")],
                    ["test-ent", *key, "--bytes", "100000", "-o", str(where / "ent.json")]]

        env = {**os.environ, "PYTHONPATH": str(Path(rctm.__file__).parents[1])}
        probe = ("import sys, rctm, rctm.cli\n"
                 "loaded = lambda: [name in sys.modules for name in ('scipy', 'concurrent.futures')]\n"
                 "print(*loaded())\n"
                 "rctm.nist.stream_outcomes([0, 1] * 64)\n"
                 "print(*loaded())")
        plain = subprocess.run([sys.executable, "-c", probe],
                               env=env, capture_output=True, text=True, check=True)
        assert plain.stdout.split() == ["False", "False", "False", "True"]
        script = ("import json, sys\n"
                  "sys.modules['scipy'] = None\n"
                  "from rctm.cli import main\n"
                  "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))")
        blocked, here = tmp_path / "blocked", tmp_path / "here"
        blocked.mkdir()
        here.mkdir()
        done = subprocess.run([sys.executable, "-c", script, json.dumps(argvs(blocked))],
                              env=env, capture_output=True, text=True, check=True)
        # 10^5 bytes sit below the entropy gate, which is calibrated for 10^6
        assert json.loads(done.stdout) == [main(argv) for argv in argvs(here)] == [0, 2]
        for name in ("nist.json", "ent.json"):
            assert (blocked / name).read_bytes() == (here / name).read_bytes()

    def test_nan_statistics_serialize_as_null(self, tmp_path):
        # an all-zero-bias stream makes the runs statistic undefined
        from rctm.cli import _jsonable
        assert _jsonable({"stat": float("nan")}) == {"stat": None}


class TestKernelField:
    @pytest.mark.parametrize("argv,report", [
        (["generate", "--bits", 100, "--meta", "-o", "s.bin"], "s.bin.meta.json"),
        (["export", "--bits", 100, "--segments", 2, "-o", "seg"], "seg_manifest.json"),
        (["test-nist", "--streams", 2, "--bits", 1000, "-o", "nist.json"], "nist.json"),
        (["test-ent", "--bytes", 1000, "-o", "ent.json"], "ent.json"),
    ])
    def test_reports_name_the_orbit_kernel(self, kernel, tmp_path, monkeypatch, argv, report):
        monkeypatch.chdir(tmp_path)
        run([*argv, "--mu", 61.81, "--x0", 0.23])
        assert json.loads((tmp_path / report).read_text())["kernel"] == kernel


class TestStreamHealthField:
    @pytest.mark.parametrize("x0", [0.5, 0.23])
    @pytest.mark.parametrize("argv,report,meta", [
        (["generate", "--bits", 1000, "--meta", "-o", "s.bin"], "s.bin.meta.json", None),
        (["export", "--bits", 500, "--segments", 2, "-o", "seg"], "seg_manifest.json", None),
        (["test-nist", "--streams", 2, "--bits", 1000, "-o", "nist.json"], "nist.json",
         "stream_meta"),
        (["test-ent", "--bytes", 1000, "-o", "ent.json"], "ent.json", "stream_meta"),
    ])
    def test_reports_carry_the_degenerate_flag(self, tmp_path, monkeypatch, capsys,
                                               x0, argv, report, meta):
        # x0 = 0.5 collapses to the fixed point 0 after two steps
        monkeypatch.chdir(tmp_path)
        run([*argv, "--mu", 61.81, "--x0", x0])
        data = json.loads((tmp_path / report).read_text())
        assert (data[meta] if meta else data)["degenerate_tail"] is (x0 == 0.5)
        assert ("degenerate" in capsys.readouterr().err) is (x0 == 0.5)


class TestSweepCommand:
    def test_correlation_sweep_json_and_csv(self, tmp_path):
        out = tmp_path / "sweep.json"
        pairs_csv = tmp_path / "pairs.csv"
        assert run(["sweep", "--kind", "correlation", "--mu", 61.81, "--x0", 0.23,
                    "--delta", "0x1p-48", "--vary", "x0", "--pairs", 20,
                    "--length", 500, "-o", out, "--pairs-csv", pairs_csv]) == 0
        data = json.loads(out.read_text())
        assert data["pairs"] == 20
        assert data["burn_in"] == 100  # the default for perturbation sweeps
        assert abs(data["aggregates"]["correlation"]["mean_abs"]) <= 0.2
        lines = pairs_csv.read_text().splitlines()
        assert lines[0] == "pair,correlation,uaci_pct,npcr_pct"
        assert len(lines) == 21

    def test_sensitivity_json(self, tmp_path):
        out = tmp_path / "sens.json"
        assert run(["sweep", "--kind", "sensitivity", "--vary", "mu",
                    "--mu", 49.13, "--x0", 0.28, "--delta", "0x1p-48",
                    "--sequences", 5, "--length", 1000, "-o", out]) == 0
        data = json.loads(out.read_text())
        assert data["max_abs_off_diagonal"] <= 0.2
        assert len(data["preview"]) == 5
        assert len(data["preview"][0]) == 30

    @pytest.mark.parametrize("vary", ["mu", "x0"])
    def test_sensitivity_perturbs_the_vary_parameter(self, tmp_path, vary):
        out = tmp_path / "sens.json"
        assert run(["sweep", "--kind", "sensitivity", "--vary", vary,
                    "--mu", 49.13, "--x0", 0.28, "--delta", 0.001,
                    "--sequences", 3, "--length", 100, "-o", out]) == 0
        data = json.loads(out.read_text())
        assert data["case"] == f"vary_{vary}"
        assert data["offsets"] == [0, 1, 2]
        # at burn-in 0 each preview row starts at its key's x0
        starts = [row[0] for row in data["preview"]]
        assert starts == ([0.28 + k * 0.001 for k in range(3)] if vary == "x0" else [0.28] * 3)

    def test_case_option_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["sweep", "--kind", "sensitivity", "--case", "vary_x0",
                 "--mu", 49.13, "--x0", 0.28, "-o", tmp_path / "sens.json"])
        assert exc.value.code == 2
        assert not list(tmp_path.iterdir())

    def test_entropy_sweep_json(self, tmp_path):
        out = tmp_path / "entropy.json"
        assert run(["sweep", "--kind", "entropy", "--mu", 61.81, "--x0", 0.23,
                    "--sequences", 10, "--length", 20000, "-o", out]) == 0
        data = json.loads(out.read_text())
        assert data["mean_entropy"] >= 7.9
        assert len(data["entropies"]) == 10

    def test_entropy_delta_is_the_seed_increment(self, tmp_path):
        # pinned from `--seed-increment 0x1p-10`, the option --delta replaced
        out = tmp_path / "entropy.json"
        assert run(["sweep", "--kind", "entropy", "--mu", 61.81, "--x0", 0.23,
                    "--sequences", 10, "--length", 10000, "--delta", "0x1p-10", "-o", out]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "9a4d673c466ab9065dbdd5c723157c37cd9312bc5f47dc4fa3f16d58c28d6f00")
        assert json.loads(out.read_text())["seed_increment"] == 2.0 ** -10

    def test_seed_increment_option_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["sweep", "--kind", "entropy", "--seed-increment", "0x1p-10",
                 "--mu", 61.81, "--x0", 0.23, "-o", tmp_path / "entropy.json"])
        assert exc.value.code == 2
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("kind,args", [
        ("sensitivity", ["--vary", "x0", "--sequences", 3, "--length", 200]),
        ("entropy", ["--sequences", 3, "--length", 2000]),
    ])
    def test_burn_in_reaches_sensitivity_and_entropy(self, tmp_path, kind, args):
        reports = {}
        for burn_in in (None, 0, 5000):
            out = tmp_path / f"{kind}_{burn_in}.json"
            flag = [] if burn_in is None else ["--burn-in", burn_in]
            assert run(["sweep", "--kind", kind, "--mu", 61.81, "--x0", 0.23,
                        *args, *flag, "-o", out]) == 0
            reports[burn_in] = out.read_bytes()
        # without the flag these sweeps start at x0, as the paper's preview does
        assert reports[None] == reports[0]
        assert reports[5000] != reports[0]
        assert json.loads(reports[0])["burn_in"] == 0
        assert json.loads(reports[5000])["burn_in"] == 5000


KEY = ["--mu", 61.81, "--x0", 0.23]
# short orbits, so a missed refusal fails fast
CHEAP = {"sweep": ["--length", 100], "analyze-dynamics": ["--iterations", 100]}


class TestTuningOptions:
    """Each tuning option of sweep and analyze-dynamics reaches the library only
    when given, and is refused where the chosen kind would not read it."""

    @pytest.mark.parametrize("table, kind, func", [
        (cli.SWEEP_READS, "correlation", analysis.correlation_sweep),
        (cli.SWEEP_READS, "differential", analysis.correlation_sweep),
        (cli.SWEEP_READS, "sensitivity", analysis.key_sensitivity_run),
        (cli.SWEEP_READS, "entropy", analysis.entropy_sweep),
        (cli.DYNAMICS_READS, "bifurcation", dynamics.bifurcation_sample),
        (cli.DYNAMICS_READS, "lyapunov", dynamics.lyapunov_grid),
        (cli.DYNAMICS_READS, "coverage", dynamics.phase_coverage),
        (cli.GRID_READS, "grid", cli._mu_grid),
    ])
    def test_every_option_fills_a_parameter_with_a_default(self, table, kind, func):
        params = inspect.signature(func).parameters
        for param in filter(None, table[kind].values()):
            assert params[param].default is not inspect.Parameter.empty

    @pytest.mark.parametrize("argv, option, value, owner", [
        (["sweep", "--kind", "correlation", *KEY], "--sequences", 3, "--kind correlation"),
        (["sweep", "--kind", "differential", *KEY], "--sequences", 3, "--kind differential"),
        (["sweep", "--kind", "sensitivity", *KEY], "--pairs", 3, "--kind sensitivity"),
        (["sweep", "--kind", "sensitivity", *KEY], "--pairs-csv", "p.csv", "--kind sensitivity"),
        (["sweep", "--kind", "entropy", *KEY], "--vary", "x0", "--kind entropy"),
        (["sweep", "--kind", "entropy", *KEY], "--pairs", 3, "--kind entropy"),
        (["sweep", "--kind", "entropy", *KEY], "--pairs-csv", "p.csv", "--kind entropy"),
        (["analyze-dynamics", "--what", "bifurcation"], "--bins", 50, "--what bifurcation"),
        (["analyze-dynamics", "--what", "lyapunov"], "--bins", 50, "--what lyapunov"),
        (["analyze-dynamics", "--what", "coverage", "--mu", 20.33], "--burn-in", 5,
         "--what coverage"),
        (["analyze-dynamics", "--what", "coverage", "--mu", 20.33], "--mu-min", 2.5,
         "--what coverage with --mu"),
        (["analyze-dynamics", "--what", "lyapunov", "--mu", 20.33], "--mu-max", 90.5,
         "--what lyapunov with --mu"),
        (["analyze-dynamics", "--what", "bifurcation", "--mu", 20.33], "--grid-points", 7,
         "--what bifurcation with --mu"),
    ])
    def test_option_the_kind_does_not_read_exits_1(self, tmp_path, monkeypatch, capsys,
                                                   argv, option, value, owner):
        monkeypatch.chdir(tmp_path)
        assert run([*argv, option, value, *CHEAP[argv[0]], "-o", "out.json"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {option} is not read by {owner}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, option, value, floor", [
        (["sweep", "--kind", "entropy", *KEY], "--burn-in", -1, 0),
        (["sweep", "--kind", "entropy", *KEY], "--length", 0, 1),
        (["sweep", "--kind", "sensitivity", *KEY], "--sequences", 1, 2),
        (["sweep", "--kind", "sensitivity", *KEY], "--length", 1, 2),
        (["sweep", "--kind", "correlation", *KEY], "--pairs", 0, 1),
        (["analyze-dynamics", "--what", "bifurcation"], "--iterations", 0, 1),
        (["analyze-dynamics", "--what", "lyapunov"], "--iterations", 0, 1),
        (["analyze-dynamics", "--what", "lyapunov"], "--burn-in", -1, 0),
        (["analyze-dynamics", "--what", "coverage"], "--bins", 1, 2),
        (["analyze-dynamics", "--what", "lyapunov"], "--grid-points", 0, 1),
    ])
    def test_count_below_its_floor_is_refused_under_the_option(
            self, tmp_path, monkeypatch, capsys, argv, option, value, floor):
        # the library refuses the count; the message names the option that filled it
        monkeypatch.chdir(tmp_path)
        assert run([*argv, option, value, "-o", "out.json"]) == 1
        assert capsys.readouterr().err == f"error: {option} must be >= {floor}, got {value}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("kind, value, condition", [
        ("entropy", "inf", "finite, got inf"),
        ("entropy", "-inf", "finite, got -inf"),
        ("entropy", "nan", "finite, got nan"),
        ("correlation", "0", "finite and non-zero"),
        ("sensitivity", "inf", "finite"),
    ])
    def test_bad_delta_is_refused_under_the_option(self, tmp_path, monkeypatch, capsys,
                                                   kind, value, condition):
        # a library refusal other than a count floor names the option too
        monkeypatch.chdir(tmp_path)
        assert run(["sweep", "--kind", kind, *KEY, f"--delta={value}", *CHEAP["sweep"],
                    "-o", "out.json"]) == 1
        assert capsys.readouterr().err == f"error: --delta must be {condition}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("option", ["--settle", "--keep"])
    def test_settle_and_keep_are_gone(self, tmp_path, option):
        with pytest.raises(SystemExit) as exc:
            run(["analyze-dynamics", "--what", "bifurcation", "--mu", 20.33, option, 5,
                 "-o", tmp_path / "bif.csv"])
        assert exc.value.code == 2
        assert not list(tmp_path.iterdir())

    def test_bifurcation_reads_burn_in_and_iterations(self, tmp_path):
        docs = {}
        for name, extra in (("default", []),
                            ("explicit", ["--burn-in", 1000, "--iterations", 200]),
                            ("short", ["--burn-in", 3, "--iterations", 7])):
            out = tmp_path / f"{name}.json"
            assert run(["analyze-dynamics", "--what", "bifurcation", "--mu", 20.33, *extra,
                        "--format", "json", "-o", out]) == 0
            docs[name] = out.read_bytes()
        assert docs["default"] == docs["explicit"]
        short = json.loads(docs["short"])
        assert (short["burn_in"], short["iterations"], len(short["points"])) == (3, 7, 7)

    @pytest.mark.parametrize("argv, recorded", [
        (["sweep", "--kind", "entropy", *KEY],
         {"sequences": 100, "length": 100_000, "burn_in": 0, "seed_increment": 2.0 ** -20}),
        (["sweep", "--kind", "sensitivity", *KEY],
         {"case": "vary_mu", "sequences": 5, "length": 3000, "burn_in": 0}),
        (["sweep", "--kind", "correlation", *KEY],
         {"vary": "mu", "pairs": 1000, "length": 1000, "burn_in": 100}),
        (["analyze-dynamics", "--what", "lyapunov", "--mu", 61.81, "--format", "json"],
         {"iterations": 100_000, "burn_in": 100}),
        (["analyze-dynamics", "--what", "coverage", "--mu", 20.33, "--format", "json"],
         {"iterations": 100_000, "bins": 1000}),
    ])
    def test_omitted_options_run_and_record_the_library_defaults(self, tmp_path, argv,
                                                                 recorded):
        out = tmp_path / "report.json"
        assert run([*argv, "-o", out]) == 0
        data = json.loads(out.read_text())
        assert {name: data[name] for name in recorded} == recorded
        if "entropies" in data:
            assert len(data["entropies"]) == 100
        if "estimates" in data:
            assert data["estimates"][0]["n_samples"] == 100_000


class TestKeyspaceCommand:
    def test_report(self, tmp_path):
        out = tmp_path / "ks.json"
        assert run(["keyspace", "--precision-exponent", -16, "-o", out]) == 0
        data = json.loads(out.read_text())
        assert round(data["total_bits"]) == 199
        assert round(data["weak_key_adjusted_bits"]) == 198

    @pytest.mark.parametrize("p", [-2, -307, -400])
    def test_exponent_outside_the_model_exits_1(self, tmp_path, capsys, p):
        out = tmp_path / "ks.json"
        assert run(["keyspace", "--precision-exponent", p, "-o", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "[-306, -3]" in err
        assert not out.exists()
