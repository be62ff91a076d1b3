"""The ``verify-cli`` task: three ``vilenkin verify`` processes, one per group.

Standard library only: the worker that drives these processes never imports
numpy itself, so its set-up time is the cost of one CLI process.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

# (name, --m, --levels): the acceptance groups m2, m3 and m234.
GROUPS = (("m2", "2", 12), ("m3", "3", 9), ("m234", "2,3,4", 9))

# Claims each group's catalogue emits, recorded from the package as it was
# when this benchmark was written.  A change that drops or adds a claim fails
# the task's check.
_COMMON = (
    "1.1 112 2dna 3aa 5aa 9dn Dn Dnqn T1 T2 condmart cor3a corollary3sub covstrong "
    "dn2.6 dn2.7 dn21 dn22 eqvi g100 kn10 kn8 knbounded l2 lemma0nnT lemma0nnT0 "
    "lemma0nnT1 lemma0nnT121 lemma2.3.4 lemma222 lemma3 lemma5 lemma5a lemma5aT "
    "lemma5aa lemma5aaTin lemma5b lemma5bT lemma6kn lemma7kn lemma8ccc mag node0 "
    "node01 reisz reiszkernel simon theorem1 theorem1T theorem1sigma theorem1sub "
    "theorem2fejerstrong threisz_2 var1 vilenkin"
).split()
EXPECTED_CLAIMS = {
    "m2": frozenset(_COMMON + ["yano"]),
    "m3": frozenset(_COMMON),
    "m234": frozenset(_COMMON),
}

CLI_TIMEOUT_S = 60


def child_env(root: Path) -> dict:
    """Environment for CLI children: the source tree first, one BLAS thread."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def cli_seeds(seed: int, index: int) -> list[int]:
    """Distinct --seed values for the three processes of input ``index``."""
    return [seed * 1_000_000 + 3 * index + k for k in range(len(GROUPS))]


def verify_argv(group: tuple, cli_seed: int) -> list[str]:
    _, m, levels = group
    return ["verify", "--suite", "all", "--format", "json",
            "--m", m, "--levels", str(levels), "--seed", str(cli_seed)]


def run_process(root: Path, argv: list[str], traced: bool = False, extra_env=None):
    """Run one CLI process (or its traced wrapper); returns (code, stdout bytes)."""
    if traced:
        cmd = [sys.executable, str(root / "bench" / "traced_cli.py"), *argv]
    else:
        cmd = [sys.executable, "-m", "vilenkin.cli", *argv]
    env = child_env(root)
    env.update(extra_env or {})
    proc = subprocess.run(cmd, env=env, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=CLI_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode("utf-8", "replace"))
    return proc.returncode, proc.stdout


def check_output(group_name: str, code: int, out: bytes) -> bool:
    """Exit code 0, no record with passed false, and the expected claim set."""
    if code != 0:
        return False
    try:
        records = json.loads(out)
    except ValueError:
        return False
    if any(r.get("passed") is False for r in records):
        return False
    return frozenset(r["claim"] for r in records) == EXPECTED_CLAIMS[group_name]


def digest(outputs: list[bytes]) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(hashlib.sha256(out).digest())
    return h.hexdigest()
