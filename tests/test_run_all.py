"""The reports of the scripts/run_all.py configs, pinned by the SHA-256 of
their bytes: a change that keeps every report identical keeps these digests."""

import hashlib
import importlib.util
from pathlib import Path

from padiclt.experiments import ExperimentConfig, emit, run

_SPEC = importlib.util.spec_from_file_location(
    "run_all", Path(__file__).resolve().parent.parent / "scripts" / "run_all.py")
run_all = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(run_all)

REPORT_SHA256 = {
    "j-homomorphism": "d323ba22df1c198244035ddd5a53dd073fc8b3152e2d7395e1673d12e4660ca8",
    "dheq-vs-matrix": "f32e82165fd88d798ce6d4d1a5183994faa689f67ca9448b00d047b635771b49",
    "action-law": "4cb2895a5179a6c4a5b7b6ac4f5a195564b7af2c5f3d557f9fbf07e4fb86bf18",
    "lie-weights": "5e272298a6fd4dffe092943fc0786b91c3c541cc1326267f4a29e5ba66831f41",
    "lie-bracket": "dbde6097c525836ea37752d45684c7427a35fe7213b191f7c3cb19c2df122df0",
    "finite-difference": "6bf738f29f9de080a2a10a4c0275ffb3c3efcfc3691781241e5a9136c1166aff",
    "fn-sequence": "a22e8d60de7c143068df1c771c8bccc894f79dc78e01fb20fc3dfb007395de5a",
    "vs-stability": "86287ee8f99d187d5f7fb9d5978019e9331887fc88e45ac3163acfd7237a412c",
    "reachability": "f5472897ea36091af9b2cdc4675c05ec398fbfad135cf7e2f6e1d7bbdf766df7",
    "kernels": "696c78d3c336d3f1a103644e943cdebc1499045b6852864f4620e2bcc5c72f05",
    "lf-diagnostic": "c6781a69b4698e844af5cbef1f0f4bb88e3ccee68401779b530427f4d543fe6e",
    "contraction": "89989c631c182086bfd46af6f135ad188556e3110ad0cffe644d75b2d2821b91",
    "formal-group-axioms": "ecff43a8444c1cdaed84c163de2299fd96bac3efdede5f9cc5b360ecf9f70779",
    "gm-identities": "33af1ece6479bf112c3fbe421f2e1f8de4571618554431d0d22d33dff76d3c92",
    "logarithm": "d46b1312504b0964a50b48a024a349701492977be1987675b6f6e072a13973c1",
    "height": "3979feef5badcbb136b7a5e41998ad55b6a9976e5cfad10ac6989279f2c4539d",
    "level-structure": "4048e465b7fb45a8b5c5ec5126d8ebb12050ae44ef388e1d1395fd22b45cb1d6",
    "endomorphism-frobenius": "c3ef02d0267f5432859624013ddac3457ccdad5f36a4fa1cd2f9cd8f22a23af3",
    "period-convergence": "eb230ef97abe0db9777364edd5acbaa24adadc9980262baa8b1c1244fa92dbbc",
    "dist-norms": "c3637b29569bca38c99d15add4b70e47489c4e0b8057f6d1260c597289d39339",
}


def test_run_all_reports_keep_their_bytes():
    got = {name: hashlib.sha256(emit(run(ExperimentConfig(name, **kw)), "json")).hexdigest()
           for name, kw in run_all.CONFIGS.items()}
    assert got == REPORT_SHA256, "a run_all report changed; its digests now read:\n" + "".join(
        f'    "{name}": "{sha}",\n' for name, sha in got.items())
