#!/usr/bin/env python3
"""End-to-end smoke test for the ocr_served daemon.

Pipes a mixed JSONL job stream through the daemon and asserts the
service contract of docs/SERVICE.md:

* every request line gets exactly one well-formed response line with the
  mandatory fields, and the daemon exits 0 after draining on EOF;
* statuses map to the exit-class contract (clean=0, failed=1,
  rejected=2, partial=3) and the stream exercises all four;
* the effort-budget job reports partial (a net_effort of 1 can only
  stop level B, so its outcome does not depend on timing);
* the over-deadline job reports deadline_fired and the deadline as its
  error, and its status follows the run contract of flow/run.hpp:
  failed when the deadline cut level A, partial (with cancelled nets)
  when it fired after level A;
* the fault-injected job reports faults_injected, and none of the three
  leaks into the clean jobs;
* daemon results are deterministic and identical to ocr_route on the
  same spec (wire_length/vias compared against --metrics-json);
* under a 1-deep queue a burst is partially rejected — immediately,
  never hung or dropped; with retries on, the same burst is answered in
  full, overflow jobs waiting out a backoff in the queue;
* a hung attempt is cancelled by its hang limit and the job completes
  cleanly on its retry;
* in socket mode (--socket PATH) one connection's clean, failed and
  malformed requests each get exactly one response, and after SIGINT
  the daemon exits 0 and removes its socket file.

Usage: python3 scripts/service_smoke.py BUILD_DIR [--jobs N]
"""

import argparse
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time

MANDATORY_FIELDS = [
    "id", "status", "exit_class", "queue_ms", "run_ms", "wire_length",
    "vias", "unrouted_nets", "cancelled_nets", "deadline_fired",
    "faults_injected", "error", "manifest",
]

STATUS_TO_EXIT_CLASS = {"clean": 0, "failed": 1, "rejected": 2, "partial": 3}


def run_daemon(binary, requests, extra_args=(), timeout=300):
    stream = "".join(json.dumps(r) + "\n" for r in requests)
    proc = subprocess.run(
        [binary, *extra_args], input=stream, capture_output=True,
        text=True, timeout=timeout)
    responses = [json.loads(line) for line in proc.stdout.splitlines()
                 if line.strip()]
    return proc.returncode, responses


def check(cond, message):
    if not cond:
        print(f"FAIL: {message}")
        sys.exit(1)


def socket_case(served):
    """One connection to `ocr_served --socket`: a clean, a failed and a
    malformed request, then SIGINT."""
    scratch = tempfile.mkdtemp(prefix="ocr_smoke_")
    path = os.path.join(scratch, "served.sock")
    daemon = subprocess.Popen([served, "--workers", "1", "--socket", path],
                              stdout=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 30
        while not os.path.exists(path):
            check(daemon.poll() is None, "socket daemon exited early")
            check(time.monotonic() < deadline, "socket never appeared")
            time.sleep(0.05)
        stream = (json.dumps({"id": "sock-clean", "example": "ami33"}) + "\n"
                  + json.dumps({"id": "sock-bogus", "example": "bogus"})
                  + "\n" + '{"id":"sock-malformed" broken json}\n')
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
            conn.settimeout(300)
            conn.connect(path)
            conn.sendall(stream.encode())
            conn.shutdown(socket.SHUT_WR)  # EOF ends the connection's batch
            received = b""
            while chunk := conn.recv(65536):
                received += chunk
        responses = [json.loads(line) for line in received.decode().splitlines()
                     if line.strip()]
        daemon.send_signal(signal.SIGINT)
        code = daemon.wait(timeout=60)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
    removed = not os.path.exists(path)
    shutil.rmtree(scratch, ignore_errors=True)
    check(code == 0, f"socket daemon exit {code} after SIGINT")
    check(removed, "socket daemon left its socket file behind")
    check(len(responses) == 3,
          f"socket connection expected 3 responses: {responses}")
    by_class = {r["exit_class"]: r for r in responses}
    check(sorted(by_class) == [0, 1, 2],
          f"socket responses should have exit_class 0, 1 and 2: {responses}")
    check(by_class[0]["id"] == "sock-clean"
          and by_class[1]["id"] == "sock-bogus",
          f"socket responses answer the wrong requests: {responses}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("build_dir")
    parser.add_argument("--jobs", type=int, default=20,
                        help="size of the main mixed stream")
    args = parser.parse_args()

    served = os.path.join(args.build_dir, "src", "tools", "ocr_served")
    route = os.path.join(args.build_dir, "src", "tools", "ocr_route")
    check(os.path.exists(served), f"missing binary {served}")
    check(os.path.exists(route), f"missing binary {route}")

    # --- Mixed stream: clean jobs + one over-budget + one over-deadline
    # + one fault-armed + one broken instance + one malformed line. -----
    requests = [{"id": f"clean-{i}", "example": "ami33",
                 "threads": 1 + i % 2} for i in range(args.jobs - 5)]
    requests.append({"id": "budget", "example": "ami33", "net_effort": 1})
    requests.append({"id": "deadline", "example": "ex3", "deadline_ms": 1})
    requests.append({"id": "faulty", "example": "ami33", "threads": 2,
                     "faults": "engine.committer.commit=2"})
    requests.append({"id": "broken", "example": "no-such-example"})
    n_parsed = len(requests) + 1  # + the malformed raw line below

    stream = "".join(json.dumps(r) + "\n" for r in requests)
    stream += '{"id":"malformed" broken json}\n'
    # Queue bound above the stream size: overload is exercised separately
    # below; the mixed stream must admit everything.
    proc = subprocess.run(
        [served, "--workers", "2", "--queue-limit", str(n_parsed + len(requests))],
        input=stream, capture_output=True, text=True, timeout=600)
    check(proc.returncode == 0,
          f"daemon exit {proc.returncode}, stderr: {proc.stderr[-2000:]}")
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    check(len(lines) == n_parsed,
          f"expected {n_parsed} responses, got {len(lines)} (dropped?)")

    by_id = {}
    statuses = set()
    for line in lines:
        response = json.loads(line)
        for field in MANDATORY_FIELDS:
            check(field in response, f"response missing '{field}': {line}")
        check(response["exit_class"]
              == STATUS_TO_EXIT_CLASS[response["status"]],
              f"status/exit_class mismatch: {line}")
        statuses.add(response["status"])
        by_id[response["id"]] = response

    check(statuses == {"clean", "partial", "failed", "rejected"},
          f"stream should exercise all four statuses, got {statuses}")
    check(by_id["budget"]["status"] == "partial",
          "over-budget job should degrade to partial")
    deadline = by_id["deadline"]
    check(deadline["deadline_fired"] is True,
          "over-deadline job did not report deadline_fired")
    # The run contract (flow/run.hpp): a deadline that cuts level A is a
    # hard failure; one that fires after it leaves a usable layout with
    # cancelled level-B nets. Either way the deadline is the error.
    check(deadline["status"] in ("partial", "failed")
          and deadline["error"].startswith("[deadline]"),
          f"over-deadline job breaks the run contract: {deadline}")
    check(deadline["status"] == "failed" or deadline["cancelled_nets"] > 0,
          f"partial over-deadline job cancelled no nets: {deadline}")
    check(by_id["faulty"]["faults_injected"] >= 1,
          "fault-armed job reported no injected faults")
    check(by_id["broken"]["exit_class"] == 1,
          "broken instance should fail with exit_class 1")
    check(by_id[""]["exit_class"] == 2,
          "malformed line should be rejected with exit_class 2")
    for rid, response in by_id.items():
        if rid.startswith("clean-"):
            check(response["status"] == "clean"
                  and response["faults_injected"] == 0
                  and not response["deadline_fired"],
                  f"isolation leak into {rid}: {response}")

    # --- Determinism: daemon vs CLI on the same spec. -------------------
    wire = {r["wire_length"] for i, r in by_id.items()
            if i.startswith("clean-")}
    vias = {r["vias"] for i, r in by_id.items() if i.startswith("clean-")}
    check(len(wire) == 1 and len(vias) == 1,
          f"clean ami33 jobs disagree: wire={wire} vias={vias}")

    metrics_path = os.path.join(args.build_dir, "smoke_metrics.json")
    subprocess.run([route, "--example", "ami33",
                    "--metrics-json", metrics_path],
                   check=True, capture_output=True, timeout=600)
    with open(metrics_path, encoding="utf-8") as f:
        metrics = json.load(f)
    check(metrics["gauges"]["flow.wire_length"] == wire.pop(),
          "daemon wire_length differs from ocr_route on the same spec")
    check(metrics["gauges"]["flow.vias"] == vias.pop(),
          "daemon vias differ from ocr_route on the same spec")

    # --- Overload: burst against a 1-deep queue. ------------------------
    burst = [{"id": f"burst-{i}", "example": "ami33"} for i in range(12)]
    code, responses = run_daemon(served, burst,
                                 ["--workers", "1", "--queue-limit", "1"])
    check(code == 0, f"overload daemon exit {code}")
    check(len(responses) == len(burst),
          f"overload dropped responses: {len(responses)}/{len(burst)}")
    rejected = [r for r in responses if r["exit_class"] == 2]
    completed = [r for r in responses if r["exit_class"] == 0]
    check(len(rejected) > 0, "1-deep queue burst produced no rejections")
    check(len(rejected) + len(completed) == len(burst),
          "burst responses are neither clean nor rejected")
    for r in rejected:
        check("queue full" in r["error"] or "admission" in r["error"],
              f"rejection without a reason: {r}")

    # --- The same burst with retries: overflow waits, nothing bounces. ---
    code, responses = run_daemon(
        served, burst,
        ["--workers", "1", "--queue-limit", "1", "--retry-max", "3"])
    check(code == 0, f"retrying overload daemon exit {code}")
    check(len(responses) == len(burst),
          f"retrying overload dropped responses: "
          f"{len(responses)}/{len(burst)}")
    retried = [r for r in responses
               if r["status"] == "clean" and r["attempts"] > 1]
    check(len(retried) > 0,
          f"no overflow job completed on a retry: {responses}")

    # --- Hang limit: a hung first attempt is cancelled and retried. -----
    code, responses = run_daemon(
        served, [{"id": "hung", "example": "ami33"}],
        ["--workers", "1", "--retry-max", "2", "--retry-base-ms", "1",
         "--hang-ms", "50", "--service-faults", "service.worker.hang=1"])
    check(code == 0, f"hang daemon exit {code}")
    check(len(responses) == 1
          and responses[0]["status"] == "clean"
          and responses[0]["attempts"] == 2,
          f"hung job did not complete on its retry: {responses}")

    # --- Socket mode: one connection, three requests, SIGINT. ----------
    socket_case(served)

    print(f"service smoke OK: {n_parsed} mixed responses, "
          f"{len(rejected)}/{len(burst)} burst rejections, "
          f"{len(retried)}/{len(burst)} burst jobs retried, "
          "hung attempt retried, socket connection answered, "
          "CLI/daemon results identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
