"""perfbench's tracer still finds the generation layers it times.

``perfbench/tracer.py`` wraps ``SerialPlane.submit`` (read from the class
``__dict__``), ``generate_batch`` and ``generate_dataset`` (module functions,
replaced in every loaded ``repro`` module) and ``PowerSampler.sample_many``.
Its ``generate`` workload reports their self times as per-layer metrics, so
renaming or inlining any of them breaks ``perfbench/run.py --trace 1``.
The tracer patches modules process-wide, so the check runs in a subprocess.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

SCRIPT = textwrap.dedent(
    """
    import json
    import sys

    sys.path.insert(0, sys.argv[1])
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    from repro.data.generation import DatasetSpec, generate_dataset
    from repro.runtime.plane import SerialPlane

    dataset = generate_dataset(DatasetSpec("chip1", 12, 8), plane=SerialPlane())
    names = {span[0]: span[2] for span in tracer.spans}
    print(json.dumps({
        "cases": int(dataset.inputs.shape[0]),
        "spans": [[span[2], names.get(span[1])] for span in tracer.spans],
    }))
    """
)


def test_tracer_wraps_the_generation_layers():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(REPO_ROOT / "perfbench")],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["cases"] == 8
    parents = {}
    for name, parent in report["spans"]:
        parents.setdefault(name, set()).add(parent)
    assert {
        "SerialPlane.submit", "generate_batch", "generate_dataset",
        "PowerSampler.sample_many",
    } <= set(parents)
    # Self times subtract nested spans, so the nesting is part of the hook.
    assert parents["SerialPlane.submit"] == {"generate_dataset"}
    assert parents["generate_batch"] == {"SerialPlane.submit"}
    assert parents["PowerSampler.sample_many"] == {"generate_dataset"}
