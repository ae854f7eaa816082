"""``make hub-chaos-demo``: the hub high-availability acceptance gate.

Where ``hub-demo`` kills a *client* and recovers it with ``--resume``,
this gate kills the *hub* and requires everyone else to self-heal:

1. **Serial references.**  Two overlapping benign scenario suites run
   in-process on the serial backend; their rendered tables are ground
   truth.
2. **Standing hub + fleet.**  One ``hub serve --state`` daemon (shared
   artifact root, crash-safe hub journal) and two persistent workers
   start as subprocesses.
3. **Two concurrent submissions.**  Both suites are submitted with
   ``scenario run --connect``.  The workers start only once the hub has
   journaled both, so neither sweep can finish, or go unsubmitted, before
   the kill.  Once the shared store shows progress the
   hub is SIGKILLed mid-sweep -- no goodbye, no journal flush beyond the
   last atomic write -- and restarted on the **same port** with the same
   ``--state`` directory.
4. **Self-healing, end to end.**  The restarted hub must re-adopt both
   journaled sweeps (re-queuing only tasks with no artifact behind
   them), the workers must reconnect on their own, and both clients must
   ride out the outage via reconnect + identity re-attach -- **no
   ``--resume``, no operator action** -- and finish with tables
   byte-identical to the serial references.
5. **Evidence checks.**  At least one client logged a reconnect, every
   hub state file ends ``complete`` with ``adopted >= 1``, and the
   workers still drain gracefully on SIGTERM.

Anything else -- a wedged client, a duplicate execution, a divergent
table -- is a hard failure.  The Makefile wraps the gate in a hard
``timeout`` so a hang is a loud CI failure, not a stuck job.
"""

from __future__ import annotations

import json
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional, Tuple

from repro.tools.hub_demo import (
    ROOT,
    _scenario,
    _serial_reference,
    _start_worker,
    _table_from_stdout,
)

#: Two overlapping sweeps (seeds 4-7 shared), as in ``hub-demo``.
SCENARIO_A = _scenario("hub-chaos-a", list(range(0, 8)))
SCENARIO_B = _scenario("hub-chaos-b", list(range(4, 12)))

#: Stored artifacts to wait for before the SIGKILL lands.
KILL_AFTER_ARTIFACTS = 3


def _fail(message: str) -> int:
    print(f"hub-chaos-demo FAIL: {message}")
    return 1


def _start_hub(
    artifact_dir: Path, state_dir: Path, *, port: int = 0
) -> Tuple[subprocess.Popen, Tuple[str, int]]:
    """``hub serve --state`` as a subprocess; parse the announced port."""
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "hub",
            "serve",
            "--listen",
            f"127.0.0.1:{port}",
            "--artifact-dir",
            str(artifact_dir),
            "--state",
            str(state_dir),
            "--lease-ttl",
            "5",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        cwd=str(ROOT),
    )
    assert process.stdout is not None
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        line = process.stdout.readline().decode("utf-8", "replace")
        if not line:
            break
        match = re.search(r"\[hub\] listening on ([\d.]+):(\d+)", line)
        if match:
            return process, (match.group(1), int(match.group(2)))
    process.kill()
    raise RuntimeError("hub never announced its address")


def _submit_command(spec: Path, address: str, artifact_dir: Path) -> List[str]:
    return [
        sys.executable,
        "-m",
        "repro.cli",
        "scenario",
        "run",
        str(spec),
        "--connect",
        address,
        "--artifact-dir",
        str(artifact_dir),
    ]


def main() -> int:
    print("hub-chaos-demo: building serial reference tables...")
    reference_a = _serial_reference(SCENARIO_A)
    reference_b = _serial_reference(SCENARIO_B)

    with tempfile.TemporaryDirectory(prefix="hub-chaos-demo-") as tmp:
        tmpdir = Path(tmp)
        spec_a = tmpdir / "scenario_a.json"
        spec_a.write_text(json.dumps(SCENARIO_A, indent=2), encoding="utf-8")
        spec_b = tmpdir / "scenario_b.json"
        spec_b.write_text(json.dumps(SCENARIO_B, indent=2), encoding="utf-8")
        artifact_dir = tmpdir / "artifacts"
        state_dir = tmpdir / "state"

        print("hub-chaos-demo: starting hub (--state)...")
        hub: Optional[subprocess.Popen] = None
        new_hub: Optional[subprocess.Popen] = None
        workers: List[subprocess.Popen] = []
        client_a = client_b = None
        try:
            hub, (host, port) = _start_hub(artifact_dir, state_dir)
            address = f"{host}:{port}"

            print("hub-chaos-demo: submitting two overlapping sweeps concurrently...")
            client_a = subprocess.Popen(
                _submit_command(spec_a, address, artifact_dir),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                cwd=str(ROOT),
            )
            client_b = subprocess.Popen(
                _submit_command(spec_b, address, artifact_dir),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                cwd=str(ROOT),
            )

            # The kill must find both sweeps journaled and unfinished, so
            # the fleet joins only once the hub holds both.
            deadline = time.monotonic() + 60.0
            while len(list(state_dir.glob("hub-*.state.json"))) < 2:
                if time.monotonic() >= deadline:
                    return _fail("timed out waiting for both submissions")
                for key, client in (("A", client_a), ("B", client_b)):
                    if client.poll() is not None:
                        _, err = client.communicate()
                        return _fail(
                            f"client {key} exited before submitting:\n"
                            + err.decode("utf-8", "replace")[-2000:]
                        )
                time.sleep(0.05)
            print("hub-chaos-demo: both sweeps journaled; starting 2 persistent workers...")
            workers = [_start_worker(address) for _ in range(2)]

            # SIGKILL the hub once the shared store shows real progress.
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                # Task-directory artifacts only: sweep journals live at the
                # artifact root itself, the hub journal in state_dir.
                stored = list(artifact_dir.glob("*/*.json"))
                if len(stored) >= KILL_AFTER_ARTIFACTS:
                    break
                for key, client in (("A", client_a), ("B", client_b)):
                    if client.poll() is not None:
                        _, err = client.communicate()
                        return _fail(
                            f"client {key} exited before the kill landed:\n"
                            + err.decode("utf-8", "replace")[-2000:]
                        )
                time.sleep(0.05)
            else:
                return _fail("timed out waiting for pre-kill artifact progress")
            pre_kill = {
                path: path.stat().st_mtime_ns
                for path in artifact_dir.glob("*/*.json")
            }
            hub.send_signal(signal.SIGKILL)
            hub.wait(timeout=10.0)
            print(
                f"hub-chaos-demo: SIGKILLed the hub after {len(pre_kill)} "
                "stored artifact(s); restarting on the same port..."
            )

            new_hub, _ = _start_hub(artifact_dir, state_dir, port=port)
            print(
                "hub-chaos-demo: hub restarted; waiting for clients to "
                "self-heal (no --resume)..."
            )

            out_a, err_a = client_a.communicate(timeout=180.0)
            out_b, err_b = client_b.communicate(timeout=180.0)
            stderr_a = err_a.decode("utf-8", "replace")
            stderr_b = err_b.decode("utf-8", "replace")
            if client_a.returncode != 0:
                return _fail(
                    f"client A failed (code {client_a.returncode}):\n"
                    + stderr_a[-2000:]
                )
            if client_b.returncode != 0:
                return _fail(
                    f"client B failed (code {client_b.returncode}):\n"
                    + stderr_b[-2000:]
                )
            table_a = _table_from_stdout(out_a.decode("utf-8", "replace"))
            table_b = _table_from_stdout(out_b.decode("utf-8", "replace"))
            if table_a != reference_a:
                return _fail(
                    "client A table differs from the serial reference\n"
                    f"--- serial ---\n{reference_a}\n--- hub ---\n{table_a}"
                )
            if table_b != reference_b:
                return _fail(
                    "client B table differs from the serial reference\n"
                    f"--- serial ---\n{reference_b}\n--- hub ---\n{table_b}"
                )
            reconnects = stderr_a.count("[hub-client]") + stderr_b.count(
                "[hub-client]"
            )
            if reconnects < 1:
                return _fail(
                    "no client logged a reconnect -- the kill landed after "
                    "both sweeps finished (gate too slow to be meaningful)"
                )

            # No task with an artifact behind it may have executed twice:
            # the pre-kill artifacts must be byte-stable across the restart.
            for path, mtime_ns in pre_kill.items():
                if path.stat().st_mtime_ns != mtime_ns:
                    return _fail(
                        f"{path.name} was rewritten after the restart "
                        "(task re-executed despite its artifact)"
                    )

            state_docs = [
                json.loads(path.read_text(encoding="utf-8"))
                for path in sorted(state_dir.glob("hub-*.state.json"))
            ]
            if len(state_docs) != 2:
                return _fail(
                    f"expected 2 hub state files, found {len(state_docs)}"
                )
            for doc in state_docs:
                if not doc.get("complete"):
                    return _fail(
                        f"state file for {doc.get('identity')} never completed"
                    )
                if doc.get("adopted", 0) < 1:
                    return _fail(
                        f"state file for {doc.get('identity')} was never "
                        "adopted by the restarted hub"
                    )

            print("hub-chaos-demo: draining the fleet with SIGTERM...")
            for worker in workers:
                worker.send_signal(signal.SIGTERM)
            for worker in workers:
                try:
                    worker.wait(timeout=15.0)
                except subprocess.TimeoutExpired:
                    return _fail("a worker ignored SIGTERM (graceful drain broken)")
            workers = []

            print(
                "hub-chaos-demo ok: hub SIGKILLed mid-sweep and restarted "
                "with --state; both sweeps re-adopted (journal + store "
                "prefill), both clients self-healed with "
                f"{reconnects} reconnect notice(s), both tables "
                "byte-identical to serial, pre-kill artifacts untouched"
            )
        finally:
            for proc in [client_a, client_b, *workers]:
                if proc is not None and proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10.0)
            for proc in (hub, new_hub):
                if proc is not None and proc.poll() is None:
                    proc.send_signal(signal.SIGTERM)
                    try:
                        proc.wait(timeout=15.0)
                    except subprocess.TimeoutExpired:
                        proc.kill()
                        proc.wait(timeout=10.0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
