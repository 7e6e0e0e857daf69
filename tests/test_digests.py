"""Known-answer sha256 digests of orbits, bits, NIST results and CLI outputs.

The digests were pinned from the pure-Python orbit loop.  Every way of
computing an orbit must reproduce them bit for bit: they cover the tent
arm and the robust arm, burn-in 0 and 1000, a batch of keys against the
scalar path, the bit and byte generators, the byte histogram, and what
the CLI writes, every sweep kind included.  The NIST digests hash every
statistic and p-value as a hex float, so a rewrite of a test must keep
its results exact; besides generated streams they cover constant,
alternating and block-straddling ones.  Each test runs on the compiled
orbit kernel and on its Python fallback.
"""

import hashlib
import json

import numpy as np

from rctm import cli, nist
from rctm.core import ctm_key, iterate, iterate_batch, make_key
from rctm.ent import histogram_uniformity
from rctm.prbg import generate_bits, generate_quantized, segmented_streams

ORBIT_KEYS = {
    "rctm_61.81_0.23": lambda: make_key(61.81, 0.23),
    "rctm_97.3_0.611": lambda: make_key(97.3, 0.611),
    "ctm_1.7_0.3": lambda: ctm_key(1.7, 0.3),
    "ctm_2.0_0.61": lambda: ctm_key(2.0, 0.61),
}
ORBIT_SAMPLES = 50_000
BITS = 100_000


def _sha(data) -> str:
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data).tobytes()
    return hashlib.sha256(data).hexdigest()


def batch_keys():
    """16 keys, robust and tent arms interleaved."""
    rng = np.random.default_rng(2408)
    tent = iter([ctm_key(1.7, 0.3), ctm_key(2.0, 0.61), ctm_key(0.9, 0.4), ctm_key(1.99, 0.123)])
    keys = []
    for i in range(16):
        if i % 4 == 1:
            keys.append(next(tent))
        else:
            keys.append(make_key(float(rng.uniform(2.01, 99.99)), float(rng.uniform(0.001, 0.999))))
    return keys


def library_digests() -> dict[str, str]:
    """Digests of every library path that produces orbit samples or bits,
    and of the byte histogram of one generated stream."""
    out = {}
    for name, make in ORBIT_KEYS.items():
        for burn_in in (0, 1000):
            values = iterate(make(), ORBIT_SAMPLES, burn_in).values
            out[f"iterate/{name}/burn{burn_in}"] = _sha(values.astype("<f8"))
    out["iterate_batch/16"] = _sha(iterate_batch(batch_keys(), 2000, 100).astype("<f8"))
    key = make_key(61.81, 0.23)
    out["generate_bits"] = _sha(generate_bits(key, BITS).bits)
    out["generate_quantized"] = _sha(generate_quantized(key, BITS, burn_in=1000))
    streams = segmented_streams(key, 4, BITS // 4, burn_in=1000)
    out["segmented_streams"] = _sha(np.concatenate([s.bits for s in streams]))
    out["segmented_streams/fingerprints"] = _sha(",".join(s.key_fingerprint for s in streams).encode())
    counts, chi2, p = histogram_uniformity(generate_quantized(key, BITS, burn_in=1000))
    out["histogram_uniformity"] = _sha(f"{','.join(map(str, counts.tolist()))};{_hex(chi2, p)}".encode())
    return out


def _hex(*values) -> str:
    return ",".join(float(v).hex() for v in values)


# 10^4-bit streams at the edges of the run-length and partial-sum tests;
# the single run of ones in "straddle" crosses the boundary between the
# first two 128-bit blocks
EDGE_STREAMS = {
    "ones": np.ones(10_000, dtype=np.uint8),
    "zeros": np.zeros(10_000, dtype=np.uint8),
    "alternating": np.tile(np.array([0, 1], dtype=np.uint8), 5000),
    "straddle": np.isin(np.arange(10_000), np.arange(100, 200)).astype(np.uint8),
}


def nist_digests() -> dict[str, str]:
    """Digests of every stream_outcomes row, of longest_run at the 8- and
    128-bit block sizes, of longest_run and both cusum directions on the
    edge streams, and of the two pattern-count tests at sizes m = 1..5."""
    stream = generate_bits(make_key(61.81, 0.23), 10**6, burn_in=1000)
    rows = "\n".join(f"{r.test},{_hex(r.statistic, r.p_value)}"
                     for r in nist.stream_outcomes(stream))
    out = {"nist/stream_outcomes": _sha(rows.encode())}
    for n in (1000, 10**5):  # stream_outcomes covers the 10^4-bit blocks
        out[f"nist/longest_run/n{n}"] = _sha(_hex(*nist.longest_run(stream.bits[:n])).encode())
    for name, bits in EDGE_STREAMS.items():
        for test in ("longest_run", "cusum_forward", "cusum_reverse"):
            out[f"nist/{test}/{name}"] = _sha(_hex(*getattr(nist, test)(bits)).encode())
    bits = generate_bits(make_key(97.3, 0.611), 20000)
    for m in range(1, 6):
        out[f"nist/approximate_entropy/m{m}"] = _sha(
            _hex(*nist.approximate_entropy(bits, m=m)).encode())
        (d1, p1), (d2, p2) = nist.serial(bits, m=m)
        out[f"nist/serial/m{m}"] = _sha(_hex(d1, p1, d2, p2).encode())
    return out


DYNAMICS_ARGS = {
    "bifurcation": ["--mu-min", "1.5", "--mu-max", "6.0", "--grid-points", "4",
                    "--x0", "0.23", "--burn-in", "50", "--iterations", "10"],
    "lyapunov": ["--mu-min", "1.5", "--mu-max", "90.5", "--grid-points", "4",
                 "--iterations", "2000", "--burn-in", "10"],
    "coverage": ["--mu-min", "1.9", "--mu-max", "20.33", "--grid-points", "3",
                 "--iterations", "2000", "--bins", "50"],
}


# sweep kind -> name -> extra arguments; each kind runs at its default
# burn-in and at an explicit --burn-in
SWEEP_ARGS = {
    "correlation": {"default": ["--pairs", "50", "--length", "500"]},
    "differential": {"burn0": ["--pairs", "50", "--length", "500", "--burn-in", "0"]},
    "sensitivity": {"vary_mu": ["--vary", "mu", "--length", "500"],
                    "vary_x0_burn5000": ["--vary", "x0", "--length", "500",
                                         "--burn-in", "5000"]},
    "entropy": {"default": ["--sequences", "10", "--length", "10000"],
                "burn300": ["--sequences", "10", "--length", "10000", "--burn-in", "300"]},
}


def cli_digests(tmp_path) -> dict[str, str]:
    """Digests of the files written by generate, export, analyze-dynamics,
    sweep and keyspace and of the test-ent values."""
    out = {}
    raw = tmp_path / "s.bin"
    assert cli.main(["generate", "--mu", "97.3", "--x0", "0.611", "--bits", str(BITS),
                     "--format", "raw", "-o", str(raw)]) == 0
    out["cli/generate_raw"] = _sha(raw.read_bytes())
    prefix = tmp_path / "seg"
    assert cli.main(["export", "--mu", "61.81", "--x0", "0.23", "--bits", "20000",
                     "--segments", "3", "--burn-in", "1000", "--format", "ascii-bits",
                     "-o", str(prefix)]) == 0
    for i in range(3):
        out[f"cli/export_ascii/{i}"] = _sha((tmp_path / f"seg_{i:03d}.txt").read_bytes())
    report = tmp_path / "ent.json"
    # 10^5 bytes sits below the entropy gate, which is calibrated for 10^6
    assert cli.main(["test-ent", "--mu", "61.81", "--x0", "0.23", "--bytes", str(BITS),
                     "-o", str(report)]) == 2
    values = json.loads(report.read_text())["report"]
    out["cli/test_ent_report"] = _sha(json.dumps(values, sort_keys=True).encode())
    report = tmp_path / "nist.json"
    assert cli.main(["test-nist", "--mu", "61.81", "--x0", "0.23", "--streams", "2",
                     "--bits", "20000", "-o", str(report)]) == 0
    entries = json.loads(report.read_text())["entries"]
    out["cli/test_nist_report"] = _sha(json.dumps(entries, sort_keys=True).encode())
    for what, args in DYNAMICS_ARGS.items():
        for fmt in ("csv", "json"):
            path = tmp_path / f"{what}.{fmt}"
            assert cli.main(["analyze-dynamics", "--what", what, *args,
                             "--format", fmt, "-o", str(path)]) == 0
            out[f"cli/dynamics_{what}_{fmt}"] = _sha(path.read_bytes())
    pairs_csv = tmp_path / "pairs.csv"
    for kind, cases in SWEEP_ARGS.items():
        for name, args in cases.items():
            path = tmp_path / f"sweep_{kind}_{name}.json"
            extra = ["--pairs-csv", str(pairs_csv)] if kind == "correlation" else []
            assert cli.main(["sweep", "--kind", kind, "--mu", "61.81", "--x0", "0.23",
                             *args, *extra, "-o", str(path)]) == 0
            out[f"cli/sweep_{kind}_{name}"] = _sha(path.read_bytes())
    out["cli/sweep_correlation_pairs_csv"] = _sha(pairs_csv.read_bytes())
    keyspace = tmp_path / "keyspace.json"
    assert cli.main(["keyspace", "--precision-exponent", "-12", "-o", str(keyspace)]) == 0
    out["cli/keyspace"] = _sha(keyspace.read_bytes())
    return out


PINNED = {
    "iterate/rctm_61.81_0.23/burn0": "cd5f3d5783a76a68d7be852682297a997ef58e68d7bdc5ed42ea0353152f841d",
    "iterate/rctm_61.81_0.23/burn1000": "0081adb3c35f71d7120eae0e50ca265c3a6c05e3065bae33d1c9e79c7c862596",
    "iterate/rctm_97.3_0.611/burn0": "5599ea81582048b315954416586835ad0ad1592898fb4078ec6f734ac28fb49e",
    "iterate/rctm_97.3_0.611/burn1000": "4e4eca43d67859d9ae6127e9738d1130d0da9fe855361e6d6a9180e4bc3760f5",
    "iterate/ctm_1.7_0.3/burn0": "678f990fb155af564c7d1240a7d183dd7ee8d48514fb3c3eff0d029e20054476",
    "iterate/ctm_1.7_0.3/burn1000": "3f6a877b168ed71c32b9b6b15fdff9ea2e7836663b0934d3a531617e660e8d30",
    "iterate/ctm_2.0_0.61/burn0": "a454384a861d273561a6115ebbeed9970eedfd441622445636aab996d8e3cd6b",
    "iterate/ctm_2.0_0.61/burn1000": "946cc2661d32ad837bd22fb051ee47ed6012e33a6db1617870fec60691ed7f09",
    "iterate_batch/16": "44f76cad4e13f79384431c191bad09845bfd1bd1f21062d5d6690be1069a691f",
    "generate_bits": "9abdb111c2aa627537a4a2a251241bddec33aa59c3f0cd8d9feee7bfdb0a3f68",
    "generate_quantized": "5787c892a5f888d7738307673721fd228b5c747a4123806b52af5fb76eb1e6f2",
    "segmented_streams": "0b4a8984fbb3bf3a2563b9a53f4c464c06c8c606450fab1995747d40d1be80fa",
    "segmented_streams/fingerprints": "fec7d1879021d42a1492c68c880493b37b1e20c6b4ecd6328c3772825d89f2df",
    "histogram_uniformity": "6aa79eb0fc51069ae296d13b5af1f00d7688a63674623d07f66233bc9fbba064",
    "nist/stream_outcomes": "d946f95ea77225f0424020b667de8f971f2d41af160b05a5d57aa0387435365b",
    "nist/longest_run/n1000": "593f3651df8c60c21a372d30b085d515723413720795508f3192043b5b1bde5c",
    "nist/longest_run/n100000": "bd00abf8aeaefac8975f0db467dc75001dbf9563309544e6fbcf4aee62e208be",
    "nist/longest_run/ones": "d7e70a6d8581903746606c81a6ad151763943e56fa2609a57d75bfe6828f1cd6",
    "nist/cusum_forward/ones": "300b4f8fcba283bd1bb95e68eb28f18f344e05f5daf592fda0f58bc321f9cc32",
    "nist/cusum_reverse/ones": "300b4f8fcba283bd1bb95e68eb28f18f344e05f5daf592fda0f58bc321f9cc32",
    "nist/longest_run/zeros": "c08812fa709dd84bc361b687bb1d9ed50bf8e8576616edba3275484009d0578f",
    "nist/cusum_forward/zeros": "300b4f8fcba283bd1bb95e68eb28f18f344e05f5daf592fda0f58bc321f9cc32",
    "nist/cusum_reverse/zeros": "300b4f8fcba283bd1bb95e68eb28f18f344e05f5daf592fda0f58bc321f9cc32",
    "nist/longest_run/alternating": "c08812fa709dd84bc361b687bb1d9ed50bf8e8576616edba3275484009d0578f",
    "nist/cusum_forward/alternating": "ac665b8b651d23f8a6888352d33763140571715b13f6ffd9535b99a056bab682",
    "nist/cusum_reverse/alternating": "ac665b8b651d23f8a6888352d33763140571715b13f6ffd9535b99a056bab682",
    "nist/longest_run/straddle": "fda0a8e80078ea653ea292c5d498e0794c6495898079abcaa239e2ac8310780a",
    "nist/cusum_forward/straddle": "7e9cad7187c84eeac82794fc038fd2e9b6e49a4611848c7d741ec9ee6e50de24",
    "nist/cusum_reverse/straddle": "7e9cad7187c84eeac82794fc038fd2e9b6e49a4611848c7d741ec9ee6e50de24",
    "nist/approximate_entropy/m1": "c57ca0dedf92e3472c8f8eeed162e0d825b572d76a8bc5073e5abb3693a310a9",
    "nist/approximate_entropy/m2": "acca5a1a8bf0b8f0a7b3105349cc7e6436a7d29c27ca673e1aac6419f6d897e5",
    "nist/approximate_entropy/m3": "93b364f4a72be42595afb9de01f4573df60aba1a843b0e6cf18dcb1399ce5b6f",
    "nist/approximate_entropy/m4": "e2073cb813f61b511a2aed956bb8728b100595b9fefa0850867818f07f496e18",
    "nist/approximate_entropy/m5": "087cd5d1c2a4cec1d673ab869d47c3b075cb128ce9aec1c6ea464cbd12e32384",
    "nist/serial/m1": "102f1da347537a4a6b38ac9932ac1962c380b8c0ff4feb86349a7a31859b4692",
    "nist/serial/m2": "c0ba21db4d5369b627fec075322e5983365ef4ce350587e313e61e9a74840536",
    "nist/serial/m3": "3d884756cc9118c89eed03c1a9520d159eae13f97587cbc821fe50860ec30eab",
    "nist/serial/m4": "bfb7c81fc12f7ef0d36cdd6b84658efdb3fd00f4ff0fa3f4107a5b53364e921d",
    "nist/serial/m5": "71a6c80b2fdd6fca30cd53cd7f0df7d201ac1333358dda492a2454cacb8a1a2f",
    "cli/generate_raw": "b6ba1e4fddd6edf9438664bda28b2853aa85651f08395292fc9beb5ac04c2b58",
    "cli/export_ascii/0": "3ac8ac0c63380bb225a362b3c7de4bd34fa0721dfccaee7d7b5b4f558cf1fb1d",
    "cli/export_ascii/1": "2441f86f56d2e3c21ee35bcd1f695f909b6cc318eaf871302f72bd88b41329db",
    "cli/export_ascii/2": "28a019a630cf4492820105a9deb907ef325507f39251db2d1eedaffd1c856e73",
    "cli/test_ent_report": "73fa1308fb91dcf5e4a0ac5aa9649f41a37b9ed8e8c932d77cab08485990dd34",
    "cli/test_nist_report": "ed658b83cbc2ceec48a7f02531c7c91bac7ab75e1e5544dcba4ab28e4c0ad53b",
    "cli/dynamics_bifurcation_csv": "4aa08551784ce3e0dd560838969055f1e017ed3bca0f6e4fe4630ec4b3070fe8",
    "cli/dynamics_bifurcation_json": "e28f86bb5743efc1118c88aaa0245e328f900362bf8c5c49cc401e9ad0db2c28",
    "cli/dynamics_lyapunov_csv": "f17fa38cfcb860fa9ded7cfea4a2800dc15303e625be24b215ecc9684773afac",
    "cli/dynamics_lyapunov_json": "00ff1b40ef408271ad24ddef7533f00e35af1a36226034344e59503532571ea9",
    "cli/dynamics_coverage_csv": "eeaf130aa9d8b9dc9f740269fcad27d690369d7d78fccdeffa768f2415b66a49",
    "cli/dynamics_coverage_json": "f063a6fd13729ba845ad37502571cbc61b4fe97358e060a8c3c556168728d8db",
    "cli/sweep_correlation_default": "280d41fd54f4f52a8567052e0ec0de0fe2f241815963cce6b24ec478a475c5d0",
    "cli/sweep_differential_burn0": "4d13c6c8bc43d8d70d3a056654de2db59c36e1a1c3aef1bdef497d5cb2577d0b",
    "cli/sweep_sensitivity_vary_mu": "17a4902783b0650f99b39307684cbf9422a70751cf81dd3d620f0df7642d97b9",
    "cli/sweep_sensitivity_vary_x0_burn5000": "d3622319e2a9707066bd01ee1e609fc00870e4edef7706177098e53123a416ea",
    "cli/sweep_entropy_default": "058c3510063af733bf088c822cb74ef66b9bb5ce6c2c66d5daa35a20bb867168",
    "cli/sweep_entropy_burn300": "6916a773c47a42dae345004b5a17c423c460f1f60f71934c6aee546edb43dd03",
    "cli/sweep_correlation_pairs_csv": "f2ccf197ccf865e9daa09eb4c2cbcd171ce0833ea3683ca469c1b32b6e929ebc",
    "cli/keyspace": "07091089e55a47eada195279476755c59f35b170b69544deb19a9b610fb3d304",
}


def _pinned(prefix: str) -> dict[str, str]:
    return {k: v for k, v in PINNED.items() if k.split("/")[0] == prefix}


def test_library_digests_are_pinned(kernel):
    assert library_digests() == {k: v for k, v in PINNED.items()
                                 if k.split("/")[0] not in ("cli", "nist")}


def test_nist_digests_are_pinned(kernel):
    assert nist_digests() == _pinned("nist")


def test_cli_digests_are_pinned(kernel, tmp_path):
    assert cli_digests(tmp_path) == _pinned("cli")
