"""``import repro`` pins glibc's allocator thresholds, so training does not
page-fault its arrays in again on every step.

The child interpreter trains a ``tiny`` SAU-FNO on a random dataset and
never calls a solver: without the pinned thresholds nothing frees a large
block before training, glibc keeps serving every array above 128 KiB with
fresh pages, and each step takes ~2,750 minor faults (~10 with them).
"""

import ctypes
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

_TRAIN_CHILD = """
import json, resource
import numpy as np
import repro
from repro.data.dataset import ThermalDataset
from repro.evaluation.config import get_scale
from repro.operators.factory import build_operator
from repro.training.trainer import Trainer, TrainingConfig

rng = np.random.default_rng(0)
shape = (32, 2, 40, 40)
data = ThermalDataset(rng.standard_normal(shape).astype(np.float32),
                      (300.0 + rng.standard_normal(shape)).astype(np.float32), "random", 40)
scale = get_scale("tiny")
model = build_operator("sau_fno", 2, 2, scale.model.as_dict(), np.random.default_rng(1))
trainer = Trainer(model, TrainingConfig(epochs=1, batch_size=4, seed=2))
trainer.fit(data)  # the first epoch allocates the optimiser state
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
trainer.fit(data)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps({"faults_per_step": faults / (len(data) // 4)}))
"""


def _has_glibc_mallopt() -> bool:
    if platform.libc_ver()[0] != "glibc":
        return False
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_glibc_mallopt(), reason="needs glibc's mallopt")
def test_training_steps_do_not_fault_their_arrays_in_again():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    output = subprocess.run(
        [sys.executable, "-c", _TRAIN_CHILD], env=env, check=True,
        capture_output=True, text=True, timeout=300,
    ).stdout
    faults_per_step = json.loads(output.splitlines()[-1])["faults_per_step"]
    assert faults_per_step < 100, f"{faults_per_step:.0f} minor page faults per step"
