import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_layers_smoke(tmp_path):
    out = tmp_path / "layers.json"
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_layers.py"),
                           "--k", "1", "--out", str(out)],
                          capture_output=True, text=True, check=True, timeout=120)
    report = json.loads(proc.stdout)
    assert report == json.loads(out.read_text())
    assert report["k"] == 1 and report["environment"]["nproc"] >= 1
    assert set(report["median_s"]) == {
        "series.TruncSeries.mul", "formal.lt_construct", "domain.DomainFunc.mul",
        "domain.gamma_act", "linalg.kernel_basis", "padics.frobenius", "domain.lie_act",
        "divalg.nrd", "divalg.div_inv"}
    assert all(t > 0 for t in report["median_s"].values())
