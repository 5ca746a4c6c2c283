import importlib
import inspect
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
        "series.TruncSeries.mul", "series.compose_univariate", "series.substitute_two",
        "formal.lt_construct", "formal.lt_construct_level", "formal.lt_construct_p343",
        "domain.DomainFunc.mul",
        "domain.gamma_act", "domain.gamma_act_h4", "domain.den_power",
        "linalg.kernel_basis", "domain.operator_kernel",
        "linalg.determinant", "linalg.determinant_h8",
        "padics.frobenius", "domain.lie_act", "domain.reach_span", "divalg.nrd", "divalg.j_embed",
        "divalg.mat_mul", "divalg.div_mul", "divalg.div_inv"}
    assert all(t > 0 for t in report["median_s"].values())


def test_every_traced_layer_is_defined_where_the_tracer_looks():
    # bench/tracer.py wraps a public function found in vars() of its module
    # (defined there), or a public method found in vars() of its class; a
    # layer that moved into a base class or another module would go untraced
    spec = json.loads((ROOT / "bench" / "layers.json").read_text())
    for name in spec["functions"]:
        module_name, _, rest = name.partition(".")
        module = importlib.import_module(f"padiclt.{module_name}")
        owner_name, _, method = rest.rpartition(".")
        assert not rest.split(".")[-1].startswith("_"), name
        if owner_name:
            cls = vars(module).get(owner_name)
            assert inspect.isclass(cls) and cls.__module__ == module.__name__, name
            obj = vars(cls).get(method)
            assert inspect.isfunction(obj) or isinstance(obj, staticmethod), name
        else:
            obj = vars(module).get(method)
            assert inspect.isfunction(obj) and obj.__module__ == module.__name__, name
