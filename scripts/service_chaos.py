#!/usr/bin/env python3
"""Crash-recovery chaos harness for the ocr_served daemon.

Drives a journal-backed daemon through repeated SIGKILLs and asserts the
exactly-once contract of docs/SERVICE.md:

* a job stream is fed to `ocr_served --journal`; mid-stream the daemon is
  SIGKILLed (no drain, no flush — the worst crash) and restarted with
  `--recover`, which replays the journal and re-runs unfinished jobs;
* in the first cycle the harness hangs up on the daemon's stdout before
  feeding the wave, so every job that finishes journals its terminal
  record (with the response line) but no `responded` record: each such id
  must come back `"replayed":true`, equal to its journaled response, and
  at least one must;
* after N kill/restart cycles plus a final run, every job id has been
  answered at least once, at most one response per id is a fresh
  execution (the rest carry `"replayed":true`), and all responses for an
  id agree on every field but `replayed` (a replay re-emits the
  journaled response line);
* the journal holds exactly one terminal record per id, and the recovery
  dedupe path answers resent ids without re-executing them;
* a final SIGTERM drain exits 0 and leaves a journal whose last record is
  a clean `drain` with zero unfinished jobs.

Usage: python3 scripts/service_chaos.py BUILD_DIR [--jobs N] [--kills N]
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time


def check(cond, message):
    if not cond:
        print(f"FAIL: {message}")
        sys.exit(1)


def parse_responses(text):
    responses = []
    for line in text.splitlines():
        if line.strip():
            responses.append(json.loads(line))
    return responses


def read_journal(path):
    records = []
    if not os.path.exists(path):
        return records
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                records.append({"event": "__torn__", "raw": line})
    return records


def spawn(served, journal, queue_limit, extra=(), stdout=subprocess.PIPE):
    return subprocess.Popen(
        [served, "--journal", journal, "--workers", "2",
         "--queue-limit", str(queue_limit), *extra],
        stdin=subprocess.PIPE, stdout=stdout,
        stderr=subprocess.PIPE, text=True)


def journaled_responses(path):
    """id -> the response line of its terminal record in the journal."""
    return {r["id"]: r["response"] for r in read_journal(path)
            if r["event"] in ("completed", "failed")}


def feed(proc, requests):
    for request in requests:
        proc.stdin.write(json.dumps(request) + "\n")
    proc.stdin.flush()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("build_dir")
    parser.add_argument("--jobs", type=int, default=104,
                        help="total job ids in the stream")
    parser.add_argument("--kills", type=int, default=3,
                        help="SIGKILL/restart cycles before the final run")
    args = parser.parse_args()

    served = os.path.join(args.build_dir, "src", "tools", "ocr_served")
    check(os.path.exists(served), f"missing binary {served}")

    all_ids = [f"chaos-{i}" for i in range(args.jobs)]
    requests = {i: {"id": i, "example": "ami33"} for i in all_ids}

    workdir = tempfile.mkdtemp(prefix="ocr_chaos_")
    journal = os.path.join(workdir, "journal.jsonl")

    responses = {}   # id -> list of decoded response objects
    kill_waves = []  # ids fed before each kill, for the report
    unheard = {}     # id -> response journaled while stdout was closed

    def record(batch):
        for response in batch:
            responses.setdefault(response["id"], []).append(response)

    def unanswered():
        return [i for i in all_ids if i not in responses]

    # --- N crash cycles: feed a slice, kill mid-flight, recover. --------
    pending = list(all_ids)
    for cycle in range(args.kills):
        check(pending, "stream exhausted before the kill budget")
        recover = ["--recover"] if cycle > 0 else []
        slice_size = max(1, len(pending) // (args.kills - cycle + 1))
        wave = pending[:slice_size]
        if cycle == 0:
            # Hang up on the daemon's stdout before the wave: each response
            # it writes fails (EPIPE), leaving a terminal record without a
            # `responded` record, which recovery must replay.
            read_end, write_end = os.pipe()
            proc = spawn(served, journal, args.jobs + 8, recover, write_end)
            os.close(write_end)
            os.close(read_end)
        else:
            proc = spawn(served, journal, args.jobs + 8, recover)
        feed(proc, [requests[i] for i in wave])
        kill_waves.append(len(wave))
        # Let some jobs finish so the kill lands with a mix of completed,
        # in-flight and queued work — the interesting recovery states.
        time.sleep(0.15)
        deadline = time.monotonic() + 30
        while cycle == 0 and not journaled_responses(journal):
            check(time.monotonic() < deadline,
                  "no job finished within 30 s of the first wave")
            time.sleep(0.01)
        proc.kill()  # SIGKILL: no drain, no journal flush
        out, _ = proc.communicate(timeout=60)
        if cycle == 0:
            unheard = journaled_responses(journal)
        batch = parse_responses(out or "")
        record(batch)
        answered = {r["id"] for r in batch}
        pending = [i for i in pending if i not in answered]

    # --- Final run: recover, resend everything unanswered, drain. -------
    proc = spawn(served, journal, args.jobs + 8, ["--recover"])
    resend = unanswered()
    stream = "".join(json.dumps(requests[i]) + "\n" for i in resend)
    out, err = proc.communicate(input=stream, timeout=600)  # EOF: full drain
    check(proc.returncode == 0,
          f"final daemon exit {proc.returncode}, stderr: {err[-2000:]}")
    record(parse_responses(out))

    # --- Exactly-once: every id answered, answers agree, at most one
    # fresh execution per id. -------------------------------------------
    check(not unanswered(), f"unanswered ids: {unanswered()[:10]}")
    for job_id, line in unheard.items():
        journaled = dict(json.loads(line), replayed=True)
        check(journaled in responses[job_id],
              f"{job_id}: response journaled while stdout was closed was "
              f"not replayed: {responses[job_id]}")
    replay_count = 0
    for job_id in all_ids:
        answers = responses[job_id]
        fresh = [r for r in answers if not r.get("replayed", False)]
        replays = [r for r in answers if r.get("replayed", False)]
        replay_count += len(replays)
        check(len(fresh) <= 1,
              f"{job_id} executed {len(fresh)} times (exactly-once broken)")
        bodies = {json.dumps({k: v for k, v in r.items() if k != "replayed"},
                             sort_keys=True) for r in answers}
        check(len(bodies) == 1,
              f"{job_id} answers disagree across crashes: {answers}")
        check(answers[0]["status"] == "clean"
              and answers[0]["wire_length"] > 0,
              f"{job_id} did not route cleanly: {answers[0]}")

    check(replay_count >= 1, "no response was replayed")

    # --- Journal: exactly one terminal record per id, and responses were
    # only ever emitted for journaled outcomes. --------------------------
    records = read_journal(journal)
    torn = [r for r in records if r["event"] == "__torn__"]
    terminals = {}
    for r in records:
        if r["event"] in ("completed", "failed"):
            terminals[r["id"]] = terminals.get(r["id"], 0) + 1
    check(set(terminals) >= set(all_ids),
          f"ids missing a terminal record: "
          f"{sorted(set(all_ids) - set(terminals))[:10]}")
    multi = {i: n for i, n in terminals.items() if n > 1}
    check(not multi, f"ids with duplicate terminal records: {multi}")

    # --- SIGTERM drain: clean exit, clean journal. ----------------------
    proc = spawn(served, journal, args.jobs + 8,
                 ["--recover", "--drain-deadline-ms", "30000"])
    feed(proc, [{"id": "drain-probe", "example": "ami33"}])
    time.sleep(0.3)
    proc.send_signal(signal.SIGTERM)
    out, err = proc.communicate(timeout=120)
    check(proc.returncode == 0,
          f"SIGTERM drain exit {proc.returncode}, stderr: {err[-2000:]}")
    final = read_journal(journal)
    check(final and final[-1]["event"] == "drain"
          and final[-1]["unfinished"] == 0,
          f"journal does not end in a clean drain: {final[-1:]}" )

    print(f"service chaos OK: {args.jobs} ids exactly-once across "
          f"{args.kills} SIGKILLs (waves {kill_waves}), "
          f"{replay_count} replayed responses ({len(unheard)} journaled "
          f"while stdout was closed), {len(torn)} torn journal "
          f"lines tolerated, SIGTERM drain clean")
    shutil.rmtree(workdir)  # a failed run keeps its journal for inspection
    return 0


if __name__ == "__main__":
    sys.exit(main())
