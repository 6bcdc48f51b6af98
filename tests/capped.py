"""Run a Python child on the kmoduli package under an address-space cap
and a timeout, so that a request which would hang or exhaust memory
fails the test instead of the machine."""

import os
import resource
import subprocess
import sys
from pathlib import Path

import kmoduli

ADDRESS_SPACE_CAP = 1 << 30  # 1 GiB
SRC = str(Path(kmoduli.__file__).resolve().parents[1])


def _cap_address_space():
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    soft = ADDRESS_SPACE_CAP
    if hard != resource.RLIM_INFINITY:
        soft = min(soft, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def run_capped(args, timeout):
    """Run `python *args` with the package this process imported on the
    path; past the timeout the child is killed and TimeoutExpired raised."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        preexec_fn=_cap_address_space,
        env=dict(os.environ, PYTHONPATH=path),
    )
