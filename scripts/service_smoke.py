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
  the daemon exits 0, removes its socket file and writes its
  --manifest; a client that hangs up before its response does not kill
  the daemon, which answers the next connection; SIGINT stops the
  daemon even while a client keeps its connection open;
* `--recover` re-emits a journaled response unchanged but for
  `"replayed":true`, including the fields a fresh run alone sets
  (queue_ms, deadline_fired, faults_injected, manifest).

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


class SocketDaemon:
    """`ocr_served --socket PATH` in a scratch directory, stopped and
    cleaned up on exit."""

    def __init__(self, served, extra=()):
        self.scratch = tempfile.mkdtemp(prefix="ocr_smoke_")
        self.path = os.path.join(self.scratch, "served.sock")
        self.proc = subprocess.Popen(
            [served, "--workers", "1", "--socket", self.path, *extra],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        deadline = time.monotonic() + 30
        while not os.path.exists(self.path):
            check(self.proc.poll() is None, "socket daemon exited early")
            check(time.monotonic() < deadline, "socket never appeared")
            time.sleep(0.05)

    def connect(self):
        conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        conn.settimeout(300)
        conn.connect(self.path)
        return conn

    def interrupt(self, timeout):
        """SIGINT; the exit code, or None when the daemon outlives
        `timeout` seconds."""
        self.proc.send_signal(signal.SIGINT)
        try:
            return self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            return None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        shutil.rmtree(self.scratch, ignore_errors=True)


def read_lines(conn, count):
    """Reads until `count` response lines arrived or the peer closed."""
    received = b""
    while received.count(b"\n") < count:
        try:
            chunk = conn.recv(65536)
        except ConnectionResetError:
            break
        if not chunk:
            break
        received += chunk
    return [json.loads(line) for line in received.decode().splitlines()
            if line.strip()]


def socket_case(served):
    """One connection to `ocr_served --socket`: a clean, a failed and a
    malformed request, then SIGINT; the manifest is written at exit."""
    manifest = os.path.join(tempfile.mkdtemp(prefix="ocr_smoke_"),
                            "served.manifest.json")
    with SocketDaemon(served, ["--manifest", manifest]) as daemon:
        stream = (json.dumps({"id": "sock-clean", "example": "ami33"}) + "\n"
                  + json.dumps({"id": "sock-bogus", "example": "bogus"})
                  + "\n" + '{"id":"sock-malformed" broken json}\n')
        with daemon.connect() as conn:
            conn.sendall(stream.encode())
            conn.shutdown(socket.SHUT_WR)  # EOF ends the connection's batch
            responses = read_lines(conn, 4)  # 3 expected: read to EOF
        code = daemon.interrupt(60)
        removed = not os.path.exists(daemon.path)
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
    check(os.path.exists(manifest), "socket daemon wrote no --manifest")
    with open(manifest, encoding="utf-8") as f:
        outcomes = json.load(f)["outcome"]
    shutil.rmtree(os.path.dirname(manifest), ignore_errors=True)
    check(outcomes["requests"] == 3 and outcomes["responses"] == 3
          and outcomes["signalled"] is True,
          f"socket manifest outcomes are wrong: {outcomes}")


def socket_hangup_case(served):
    """A client that closes before its response is written loses that
    response, not the daemon: the next connection is answered."""
    with SocketDaemon(served) as daemon:
        with daemon.connect() as conn:
            conn.sendall((json.dumps({"id": "gone", "example": "ex3"})
                          + "\n").encode())
        try:
            with daemon.connect() as conn:
                conn.sendall((json.dumps({"id": "next", "example": "ami33"})
                              + "\n").encode())
                conn.shutdown(socket.SHUT_WR)
                responses = read_lines(conn, 1)
        except OSError as error:  # the daemon is gone
            responses = [str(error)]
        alive = daemon.proc.poll() is None
        code = daemon.interrupt(60)
    check(alive, f"a client hang-up killed the daemon (exit {code})")
    check(len(responses) == 1 and responses[0]["id"] == "next"
          and responses[0]["status"] == "clean",
          f"the connection after a hang-up was not answered: {responses}")
    check(code == 0, f"socket daemon exit {code} after SIGINT")


def socket_open_connection_case(served):
    """SIGINT stops the daemon while a client keeps its connection
    open."""
    with SocketDaemon(served) as daemon:
        with daemon.connect() as conn:
            conn.sendall((json.dumps({"id": "open", "example": "ami33"})
                          + "\n").encode())
            responses = read_lines(conn, 1)
            code = daemon.interrupt(10)
        removed = not os.path.exists(daemon.path)
    check(len(responses) == 1 and responses[0]["status"] == "clean",
          f"open connection was not answered: {responses}")
    check(code == 0,
          f"SIGINT with a connection open: exit {code} (None: still "
          "running after 10 s)")
    check(removed, "socket daemon left its socket file behind")


def replay_case(served):
    """A journaled response whose delivery was not recorded is written
    again by --recover, unchanged but for "replayed":true."""
    scratch = tempfile.mkdtemp(prefix="ocr_smoke_")
    journal = os.path.join(scratch, "journal.jsonl")
    job_manifest = os.path.join(scratch, "replay-1.manifest.json")
    request = json.dumps({"id": "replay-1", "example": "ami33",
                          "deadline_ms": 1, "faults": "levelb.connect=1",
                          "manifest": job_manifest})
    stored = {"id": "replay-1", "status": "partial", "exit_class": 3,
              "queue_ms": 17, "run_ms": 23, "wire_length": 398000,
              "vias": 1270, "unrouted_nets": 2, "cancelled_nets": 5,
              "deadline_fired": True, "faults_injected": 1,
              "attempts": 2, "error": "[deadline] flow: deadline exceeded",
              "manifest": job_manifest}
    records = [
        {"event": "accepted", "seq": 1, "id": "replay-1", "attempt": 0,
         "request": request},
        {"event": "completed", "seq": 2, "id": "replay-1", "attempt": 1,
         "response": json.dumps(stored, separators=(",", ":"))},
    ]
    with open(journal, "w", encoding="utf-8") as f:
        f.write("".join(json.dumps(r) + "\n" for r in records))
    proc = subprocess.run([served, "--journal", journal, "--recover"],
                          stdin=subprocess.DEVNULL, capture_output=True,
                          text=True, timeout=120)
    shutil.rmtree(scratch, ignore_errors=True)
    check(proc.returncode == 0,
          f"recovery daemon exit {proc.returncode}: {proc.stderr[-2000:]}")
    responses = [json.loads(line) for line in proc.stdout.splitlines()
                 if line.strip()]
    check(responses == [dict(stored, replayed=True)],
          f"replayed response differs from the journaled one: {responses}")
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

    # --- Socket mode: one connection, three requests, SIGINT; a client
    # that hangs up; a connection held open through SIGINT. -------------
    socket_case(served)
    socket_hangup_case(served)
    socket_open_connection_case(served)

    # --- Recovery re-emits the journaled response. ---------------------
    replay_case(served)

    print(f"service smoke OK: {n_parsed} mixed responses, "
          f"{len(rejected)}/{len(burst)} burst rejections, "
          f"{len(retried)}/{len(burst)} burst jobs retried, "
          "hung attempt retried, socket connections answered and "
          "interrupted, journaled response replayed, "
          "CLI/daemon results identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
