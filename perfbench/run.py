#!/usr/bin/env python3
"""Serving benchmark of real DeepCAT tuning requests.

Builds the repository's `deepcat` server and the in-process probe
(perfbench/probe.cpp), starts `deepcat serve --stream 1` on an AF_UNIX
socket with a freshly trained master, drives it with 4 closed-loop
connections of real requests, checks every reply, and prints the
end-to-end metrics (or, with --trace 1, the per-layer metrics) as the last
line of standard output:

    python3 perfbench/run.py --workload cold-mixed --seed 1 --seconds 30 \
        --trace 0

Run it from the root of a checkout. Everything it builds or writes lives
under .bench_build/ in that checkout. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = ".bench_build"  # relative to ROOT
SERVER = os.path.join(BUILD, "deepcat", "cli", "deepcat")
PROBE = os.path.join(BUILD, "perfbench_probe")

CONNECTIONS = 4        # closed-loop client connections
SERVER_THREADS = 4     # session pool size
TRAIN_ITERS = 600      # offline training of the master at set-up
SETUPS = 3             # server set-ups per run; setup_s is their median
REPLY_TIMEOUT_S = 60   # a reply later than this is a hang: the run fails
CHECK_SAMPLE = 12      # REPs re-run in-process by service::run_session
REPLAY_SAMPLE = 8      # requests replayed layer by layer in a traced run
UNATTRIBUTED_TOLERANCE = 0.05  # refuse per-layer numbers above this

HIBENCH = ["WC-D1", "WC-D2", "WC-D3", "TS-D1", "TS-D2", "TS-D3",
           "PR-D1", "PR-D2", "PR-D3", "KM-D1", "KM-D2", "KM-D3"]
STREAMING = ["SA-P1", "SA-P2", "SJ-P1", "SJ-P2"]
# scoped-churn key popularity, most requested first (a fixed interleave of
# the four workload families, so the skew is not one family's behaviour).
POPULARITY = ["TS-D2", "PR-D1", "KM-D3", "WC-D2", "PR-D3", "TS-D1",
              "WC-D3", "KM-D1", "TS-D3", "WC-D1", "KM-D2", "PR-D2"]
ZIPF_ROUNDS = [7, 4, 3, 2, 1, 1, 1, 1, 1, 1, 1, 1]  # ~24/(H_12 * rank)

# The simulator's typed refusal when a request's default configuration
# cannot run (e.g. KM-D3 OOMs for some environment seeds). It is a correct
# answer, counted in failed_frac; any other failure fails the run.
KNOWN_FAILURES = ("TuningEnvironment: default configuration failed",
                  "StreamEnvironment: default configuration")

# Per workload: how requests are batched into rounds, whether a FLSH ends
# each round, and `quality_prefix`, the number of leading requests every
# run completes and over which speedup_mean / tuning_cost_s_mean are taken
# (so they are a pure function of code and seed).
WORKLOADS = {
    "cold-mixed": {"round": None, "flush": False, "quality_prefix": 96},
    "flush-1step": {"round": 16, "flush": True, "quality_prefix": 192},
    "scoped-churn": {"round": CONNECTIONS, "flush": False,
                     "quality_prefix": 96},
}

END_TO_END_UNITS = {
    "req_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
    "ok_frac": "ratio", "cpu_ms_per_req": "ms", "rss_peak_mb": "MB",
    "setup_s": "s", "speedup_mean": "x", "tuning_cost_s_mean": "s",
}


PER_LAYER_UNITS = {
    "net.overhead_ms_p50": "ms", "service.decode_us_p50": "us",
    "service.write_us_p50": "us", "service.queue_ms_p50": "ms",
    "service.queue_ms_p90": "ms", "service.session_ms_p50": "ms",
    "service.session_ms_p90": "ms", "service.merge_ms_p50": "ms",
    "service.clone_ms": "ms", "service.blob_mb": "MB",
    "service.snapshot_ms": "ms", "service.flush_ms_p50": "ms",
    "service.flush_ms_p90": "ms", "service.evictions_per_req": "ratio",
    "service.model_hit_frac": "ratio", "service.publish_ms": "ms",
    "service.registry_mb_per_req": "MB", "tuners.screen_ms": "ms",
    "tuners.twinq_iters_per_screen": "count",
    "tuners.twinq_pass_frac": "ratio", "tuners.rec_model_vs_wall": "ratio",
    "rl.train_step_ms": "ms", "rl.train_steps_per_req": "count",
    "rl.act_us": "us", "rl.replay_sample_us": "us",
    "rl.master_fine_tune_ms": "ms", "rl.train_share_of_session": "ratio",
    "rl.train_share_of_latency": "ratio", "nn.train_step_gflops": "GFLOP/s",
    "nn.critic_forward_gflops": "GFLOP/s",
    "common.gemm_calls_per_train_step": "count",
    "common.packed_calls": "count", "common.avx512_share": "ratio",
    "common.gemm_td3_gflops": "GFLOP/s", "sparksim.eval_ms": "ms",
    "sparksim.evals_per_req": "count", "streamsim.window_ms": "ms",
    "obs.trace_overhead_ratio": "ratio", "trace.unattributed_frac": "ratio",
}


class BenchError(Exception):
    """The run cannot produce trustworthy numbers."""


# ---- request generation ----------------------------------------------------

def generate(workload, seed, count):
    """The first `count` requests of a workload's seeded sequence. Mixes are
    stratified per block so every seed serves the same proportions."""
    rng = random.Random(f"{workload}:{seed}")
    reqs = []

    def add(case, steps, **extra):
        r = {"id": "q%05d" % len(reqs), "workload": case, "steps": steps,
             "seed": rng.randrange(1, 1 << 31)}
        r.update(extra)
        reqs.append(r)

    while len(reqs) < count:
        if workload == "cold-mixed":
            # Blocks of 16: all 12 HiBench cases at 5 steps, 4 streaming
            # cases at 12 windows, shuffled.
            block = [(c, 5) for c in HIBENCH] + [(c, 12) for c in STREAMING]
            rng.shuffle(block)
            for case, steps in block:
                add(case, steps)
        elif workload == "flush-1step":
            block = list(HIBENCH)
            rng.shuffle(block)
            for case in block:
                add(case, 1)
        else:  # scoped-churn: one workload key per round of 4 requests
            # Blocks of 24 rounds, Zipf-like counts over a fixed popularity
            # order; the seed orders the rounds.
            rounds = []
            for case, n in zip(POPULARITY, ZIPF_ROUNDS):
                rounds += [case] * n
            rng.shuffle(rounds)
            for case in rounds:
                for _ in range(CONNECTIONS):
                    add(case, 1, scope="workload")
    return reqs[:count]


def lru_replay(keys, cap=4, resident=("default",)):
    """Replays the server's model cache (StreamingService::
    evict_idle_locked: once `cap` models are resident, evict the least
    recently admitted idle one) over a scoped key sequence. Round barriers
    make every evicted model idle, so the replay is exact. Returns (hits,
    evictions, positions served by a key never evicted before)."""
    resident = list(resident)
    evicted, never_evicted = set(), []
    hits = evictions = 0
    for seq, key in enumerate(keys):
        if key in resident:
            hits += 1
            resident.remove(key)
        else:
            while len(resident) >= cap:
                evicted.add(resident.pop(0))
                evictions += 1
        resident.append(key)
        if key not in evicted:
            never_evicted.append(seq)
    return hits, evictions, never_evicted


# ---- wire protocol (service/wire.hpp) --------------------------------------

MAGIC = b"DCWP"
WIRE_VERSION = 3


def encode_frame(tag, payload=b""):
    head = tag + struct.pack("<Q", len(payload))
    crc = zlib.crc32(head + payload) & 0xFFFFFFFF
    return head + payload + struct.pack("<I", crc)


class Conn:
    def __init__(self, path, timeout=REPLY_TIMEOUT_S):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(path)
        self.sock.sendall(MAGIC + struct.pack("<I", WIRE_VERSION))
        self.buf = b""
        head = self._exact(8)
        if head[:4] != MAGIC:
            raise BenchError("server sent a bad stream header")

    def _exact(self, n):
        while len(self.buf) < n:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise BenchError("server closed the connection")
            self.buf += chunk
        out, self.buf = self.buf[:n], self.buf[n:]
        return out

    def send(self, tag, payload=b""):
        self.sock.sendall(encode_frame(tag, payload))

    def read(self):
        head = self._exact(12)
        tag, length = head[:4], struct.unpack("<Q", head[4:])[0]
        payload = self._exact(length)
        crc = struct.unpack("<I", self._exact(4))[0]
        if zlib.crc32(head + payload) & 0xFFFFFFFF != crc:
            raise BenchError("CRC mismatch on a %r frame" % tag)
        return tag, payload.decode()

    def read_until(self, tags):
        while True:
            tag, payload = self.read()
            if tag in tags:
                return tag, payload

    def close(self):
        try:
            self.send(b"END ")
            self.read_until({b"END "})
        except (OSError, BenchError):
            pass
        self.sock.close()


# ---- server process --------------------------------------------------------

class Server:
    """One `deepcat serve --stream 1` process on its own registry."""

    def __init__(self, workdir, name, traced):
        self.dir = os.path.join(workdir, name)
        os.makedirs(self.dir)
        self.registry = os.path.join(self.dir, "registry")
        self.sock = os.path.join(self.dir, "s.sock")
        cmd = [SERVER, "serve", "--stream", "1", "--checkpoint", self.registry,
               "--socket", self.sock, "--exit-after", "0",
               "--train-iters", str(TRAIN_ITERS),
               "--threads", str(SERVER_THREADS), "--drain-timeout", "30"]
        if traced:
            cmd += ["--trace-stream", os.path.join(self.dir, "trace.json"),
                    "--reply-timings", "1"]
        self.log = open(os.path.join(self.dir, "server.log"), "w")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=self.log,
                                     stderr=subprocess.STDOUT)
        try:
            self.setup_s = self._wait_accepting(t0)
        except BenchError:
            self.proc.kill()
            self.proc.wait()
            self.log.close()
            raise

    def _wait_accepting(self, t0):
        """Seconds from spawn until a connect() to the socket succeeds."""
        while True:
            if self.proc.poll() is not None:
                raise BenchError("server exited during set-up (see %s)" %
                                 os.path.join(self.dir, "server.log"))
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as probe:
                try:
                    probe.connect(self.sock)
                    return time.perf_counter() - t0
                except OSError:
                    pass
            if time.perf_counter() - t0 > 120:
                raise BenchError("server did not accept within 120 s")
            time.sleep(0.002)

    def master_path(self):
        return os.path.join(self.registry, "default.v1.dckp")

    def cpu_s(self):
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def rss_peak_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server")

    def stop(self):
        """SIGTERM drain; True when the server exited on its own."""
        drained = True
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                drained = False
        self.log.close()
        return drained


# ---- load generation -------------------------------------------------------

class Load:
    """Closed loop over CONNECTIONS connections. Requests are dispatched in
    order; with rounds, a round's requests all complete (and, for flush
    workloads, a FLSH barrier runs) before the next round starts, so every
    request's model epoch is fixed by its position, not by timing."""

    def __init__(self, server, workload, seed, seconds, traced):
        self.server, self.spec = server, WORKLOADS[workload]
        self.workload, self.seed = workload, seed
        self.seconds, self.traced = seconds, traced
        self.results = {}  # seq -> (latency ms, reply frame tag, payload)
        self.flush_ms = []
        self.lock = threading.Lock()
        self.errors = []

    def _worker(self, conn, take):
        while True:
            with self.lock:
                item = take()
            if item is None:
                return
            seq, req = item
            payload = json.dumps(req, separators=(",", ":")).encode()
            t0 = time.perf_counter()
            try:
                conn.send(b"REQ ", payload)
                tag, body = conn.read_until({b"REP ", b"ERR "})
            except (OSError, BenchError) as e:
                with self.lock:
                    self.errors.append("%s: no reply (%s)" % (req["id"], e))
                return
            t1 = time.perf_counter()
            with self.lock:
                self.results[seq] = ((t1 - t0) * 1e3, tag, body)

    def _drive(self, conns, take):
        threads = [threading.Thread(target=self._worker, args=(c, take))
                   for c in conns]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def run(self):
        round_size = self.spec["round"]
        prefix = self.spec["quality_prefix"]
        conns = [Conn(self.server.sock) for _ in range(CONNECTIONS)]
        # Far more requests than a run can serve; the sequence is a pure
        # function of (workload, seed).
        reqs = generate(self.workload, self.seed, 20000)
        if self.traced:
            for r in reqs:
                r["trace"] = "perfbench-%s-%d" % (self.workload, self.seed)
        cpu0 = self.server.cpu_s()
        steal0 = host_cpu_ticks()
        self.t_start = time.perf_counter()
        self.t_window = self.t_start + self.seconds
        self.sent = 0

        def more():
            return (time.perf_counter() < self.t_window or
                    self.sent < prefix) and not self.errors

        def take_open():  # no rounds: dispatch until the window closes
            if not more():
                return None
            self.sent += 1
            return self.sent - 1, reqs[self.sent - 1]

        if round_size is None:
            self._drive(conns, take_open)
        while round_size is not None and more():
            batch = [(i, reqs[i])
                     for i in range(self.sent, self.sent + round_size)]
            self.sent += round_size
            self._drive(conns, lambda: batch.pop(0) if batch else None)
            if self.spec["flush"] and not self.errors:
                self._flush(conns[0])
        self.t_end = time.perf_counter()
        self.cpu_s = self.server.cpu_s() - cpu0
        steal1 = host_cpu_ticks()
        self.steal_frac = ((steal1[1] - steal0[1]) /
                           max(1, steal1[0] - steal0[0]))
        self.rss_peak_mb = self.server.rss_peak_mb()
        # After the window: one FLSH (merges everything pending; the only
        # flush of the workloads without round barriers), then a STAT for
        # the global telemetry, then END on every connection.
        self._flush(conns[0])
        conns[0].send(b"STAT")
        _, tele = conns[0].read_until({b"TELE"})
        self.tele = {}
        for line in tele.splitlines():
            obj = json.loads(line)
            if "name" in obj and "value" in obj:
                self.tele[obj["name"]] = obj["value"]
        for c in conns:
            c.close()
        self.reqs = reqs[:self.sent]

    def _flush(self, conn):
        t0 = time.perf_counter()
        conn.send(b"FLSH")
        conn.read_until({b"TELE"})
        self.flush_ms.append((time.perf_counter() - t0) * 1e3)


def host_cpu_ticks():
    """(all ticks, steal ticks) of the host's CPUs from /proc/stat. Steal is
    time the hypervisor ran something else on this VM's CPUs."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return sum(fields), fields[7]


# ---- statistics ------------------------------------------------------------

def pct(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    k = max(0, min(len(s) - 1, int(round(q * len(s) + 0.5)) - 1))
    return s[k]


def epoch_of(workload, seq):
    rnd = WORKLOADS[workload]["round"]
    if WORKLOADS[workload]["flush"]:
        return 1 + seq // rnd
    return 1


# ---- build and checks ------------------------------------------------------

def build():
    log_path = os.path.join(BUILD, "build.log")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no src/ tree next to perfbench/: nothing to build")
    os.makedirs(BUILD, exist_ok=True)
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.relpath(HERE, ROOT), "-B",
                          BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "-j", "4", "--target",
                      "deepcat", "perfbench_probe"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                raise BenchError("build failed (see %s)" % log_path)


def code_hash():
    """Digest of the program and benchmark sources: cross-run REP digests
    are compared only between runs of identical code."""
    h = hashlib.sha256()
    for top in ("src", os.path.relpath(HERE, ROOT)):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def rep_digest(body):
    r = json.loads(body)
    return [r["id"], r["ok"], r.get("best_time"), r.get("speedup"),
            r.get("model_epoch")]


def check_digests(workload, seed, digests):
    """Every REP digest must equal the one an earlier run of the same code
    and seed recorded (over the requests both runs served)."""
    d = os.path.join(BUILD, "digests", code_hash())
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, "%s-%d.json" % (workload, seed))
    if os.path.exists(path):
        with open(path) as f:
            old = json.load(f)
        n = min(len(old), len(digests))
        for i in range(n):
            if old[i] != digests[i]:
                raise BenchError("REP digest differs from an earlier run of "
                                 "this code and seed: %r vs %r" %
                                 (digests[i], old[i]))
        if len(old) >= len(digests):
            return
    with open(path + ".tmp", "w") as f:
        json.dump(digests, f)
    os.replace(path + ".tmp", path)


def genesis_served(workload, reqs):
    """Sequence numbers of requests served by the epoch-1 genesis master. A
    scoped key serves its genesis fork until an eviction merges into it."""
    if workload == "scoped-churn":
        return lru_replay([r["workload"] for r in reqs])[2]
    return [s for s in range(len(reqs)) if epoch_of(workload, s) == 1]


def run_probe(args, timeout=170):
    p = subprocess.run([PROBE] + args, capture_output=True, text=True,
                       timeout=timeout)
    if p.returncode != 0:
        raise BenchError("probe failed: " + p.stderr.strip())
    return p.stdout


def write_requests(path, reqs):
    with open(path, "w") as f:
        for r in reqs:
            f.write(json.dumps(r) + "\n")


def check_in_process(workdir, master, workload, reqs, results):
    """A sample of genesis-served REPs must equal service::run_session run
    in-process on the same master blob."""
    pool = genesis_served(workload, reqs)
    step = max(1, len(pool) // CHECK_SAMPLE)
    sample = pool[::step][:CHECK_SAMPLE]
    path = os.path.join(workdir, "check.jsonl")
    write_requests(path, [reqs[s] for s in sample])
    lines = run_probe(["check", master, path, "4"]).splitlines()
    for seq, line in zip(sample, lines):
        want = json.loads(line)
        got = json.loads(results[seq][2])
        for key in ("id", "ok", "best_time", "speedup", "error"):
            if want.get(key) != got.get(key):
                raise BenchError("request %s: served %s=%r, in-process "
                                 "run_session gives %r" %
                                 (want["id"], key, got.get(key),
                                  want.get(key)))
    return len(sample)


# ---- one measured run ------------------------------------------------------

def serve(workdir, workload, seed, seconds, traced, setups):
    """Sets the server up `setups` times (keeping the last), serves the
    workload and checks every reply. Returns (load, server, setup times)."""
    servers, setup_times, masters = [], [], set()
    try:
        for i in range(setups):
            s = Server(workdir, "%s%d" % ("t" if traced else "u", i),
                       traced)
            servers.append(s)
            setup_times.append(s.setup_s)
            with open(s.master_path(), "rb") as f:
                masters.add(hashlib.sha256(f.read()).hexdigest())
            if i + 1 < setups:
                if not s.stop():
                    raise BenchError("idle server did not drain on SIGTERM")
        if len(masters) != 1:
            raise BenchError("offline training is not deterministic: the "
                             "set-ups published different masters")
        server = servers[-1]
        load = Load(server, workload, seed, seconds, traced)
        load.run()
    finally:
        for s in servers:
            if s.proc.poll() is None:
                if not s.stop():
                    raise BenchError("server did not drain on SIGTERM")
    if load.errors:
        raise BenchError("; ".join(load.errors[:3]))
    return load, server, setup_times


def analyse(load, workload):
    """Per-request outcomes; raises on anything but a typed known failure."""
    ok, known, digests = [], [], []
    for seq in range(load.sent):
        if seq not in load.results:
            raise BenchError("request %s was never answered" %
                             load.reqs[seq]["id"])
        _, tag, body = load.results[seq]
        if tag == b"ERR ":
            raise BenchError("ERR frame for request %s: %s" %
                             (load.reqs[seq]["id"], body))
        rep = json.loads(body)
        if rep["id"] != load.reqs[seq]["id"]:
            raise BenchError("REP for %s answered request %s" %
                             (rep["id"], load.reqs[seq]["id"]))
        want_epoch = epoch_of(workload, seq)
        if workload != "scoped-churn" and rep.get("model_epoch") != want_epoch:
            raise BenchError("request %s served at epoch %r, expected %d" %
                             (rep["id"], rep.get("model_epoch"), want_epoch))
        if rep["ok"]:
            ok.append(seq)
        elif rep.get("error", "").startswith(KNOWN_FAILURES):
            known.append((rep["id"], rep["error"]))
        else:
            raise BenchError("request %s failed: %s" %
                             (rep["id"], rep.get("error")))
        digests.append(rep_digest(body))
    return ok, known, digests


def end_to_end(load, setup_times, workload, ok):
    lat = [load.results[s][0] for s in range(load.sent)]
    prefix = WORKLOADS[workload]["quality_prefix"]
    quality = [json.loads(load.results[s][2]) for s in ok if s < prefix]
    return {
        "req_per_s": load.sent / (load.t_end - load.t_start),
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": pct(lat, 0.90),
        "ok_frac": len(ok) / load.sent,
        "cpu_ms_per_req": 1e3 * load.cpu_s / load.sent,
        "rss_peak_mb": load.rss_peak_mb,
        "setup_s": statistics.median(setup_times),
        "speedup_mean": statistics.fmean(r["speedup"] for r in quality),
        "tuning_cost_s_mean": statistics.fmean(
            r["eval_seconds"] + r["rec_seconds"] for r in quality),
    }


def per_layer(load, untraced, server, workdir, workload, ok):
    """Traced-run metrics: served stage timings + the in-process replay."""
    stages = {k: [] for k in ("decode", "queue", "session", "merge", "write")}
    overhead = []
    for s in ok:
        lat_ms, _, body = load.results[s]
        rep = json.loads(body)
        total = 0
        for k in stages:
            v = rep["t_%s_ns" % k]
            stages[k].append(v)
            total += v
        overhead.append(lat_ms - total / 1e6)
    reqs = load.reqs
    n = load.sent
    evictions = load.tele.get("stream.evictions", 0)
    if workload == "scoped-churn":
        hits, predicted, _ = lru_replay([r["workload"] for r in reqs])
        if predicted != evictions:
            raise BenchError("server evicted %d models, the LRU rule "
                             "predicts %d" % (evictions, predicted))
    else:
        hits = n
    reg_bytes = sum(os.path.getsize(os.path.join(server.registry, f))
                    for f in os.listdir(server.registry))

    sample = genesis_served(workload, reqs)[:REPLAY_SAMPLE]
    path = os.path.join(workdir, "replay.jsonl")
    write_requests(path, [reqs[s] for s in sample])
    probe = json.loads(run_probe(["trace", server.master_path(), path,
                                  workdir]))
    if probe["faithful_sessions"] != probe["sessions"]:
        raise BenchError("layer-by-layer replay differs from run_session: " +
                         probe["mismatch"])
    if probe["blob_roundtrip_equal"] != 1:
        raise BenchError("published master does not round-trip to the "
                         "served blob")
    if probe["trace.unattributed_frac"] > UNATTRIBUTED_TOLERANCE:
        raise BenchError("replay leaves %.1f%% of session wall unattributed "
                         "(tolerance %.0f%%)" %
                         (100 * probe["trace.unattributed_frac"],
                          100 * UNATTRIBUTED_TOLERANCE))
    # TD3 train-step share of the replayed sessions' wall, and of the
    # client latency of the same requests as served.
    replayed_ok = [s for s in sample if s in set(ok)]
    train_per_req = probe["train_step_ms_sum"] / max(1, len(replayed_ok))
    lat_mean = statistics.fmean(load.results[s][0] for s in replayed_ok)
    m = {
        "net.overhead_ms_p50": statistics.median(overhead),
        "service.decode_us_p50": statistics.median(stages["decode"]) / 1e3,
        "service.write_us_p50": statistics.median(stages["write"]) / 1e3,
        "service.queue_ms_p50": statistics.median(stages["queue"]) / 1e6,
        "service.queue_ms_p90": pct(stages["queue"], 0.9) / 1e6,
        "service.session_ms_p50": statistics.median(stages["session"]) / 1e6,
        "service.session_ms_p90": pct(stages["session"], 0.9) / 1e6,
        "service.merge_ms_p50": statistics.median(stages["merge"]) / 1e6,
        "service.flush_ms_p50": statistics.median(load.flush_ms),
        "service.flush_ms_p90": pct(load.flush_ms, 0.9),
        "service.evictions_per_req": evictions / n,
        "service.model_hit_frac": hits / n,
        "service.registry_mb_per_req": reg_bytes / 1e6 / n,
        "obs.trace_overhead_ratio":
            (untraced.sent / (untraced.t_end - untraced.t_start)) /
            (load.sent / (load.t_end - load.t_start)),
        "rl.train_share_of_session":
            probe["train_step_ms_sum"] / probe["session_wall_ms_sum"],
        "rl.train_share_of_latency": train_per_req / lat_mean,
    }
    for k in ("service.clone_ms", "service.blob_mb", "service.snapshot_ms",
              "service.publish_ms", "tuners.screen_ms",
              "tuners.twinq_iters_per_screen", "tuners.twinq_pass_frac",
              "tuners.rec_model_vs_wall", "rl.train_step_ms",
              "rl.train_steps_per_req", "rl.act_us", "rl.replay_sample_us",
              "rl.master_fine_tune_ms", "nn.train_step_gflops",
              "nn.critic_forward_gflops", "common.gemm_calls_per_train_step",
              "common.packed_calls", "common.avx512_share",
              "common.gemm_td3_gflops", "sparksim.eval_ms",
              "sparksim.evals_per_req", "streamsim.window_ms",
              "trace.unattributed_frac"):
        m[k] = probe[k]
    return m, probe


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    workdir = os.path.join(BUILD, "run", "%s-%d-%d" % (a.workload, a.seed,
                                                       os.getpid()))
    try:
        build()
        os.makedirs(workdir)
        load, server, setups = serve(workdir, a.workload, a.seed, a.seconds,
                                     False, SETUPS if not a.trace else 1)
        ok, known, digests = analyse(load, a.workload)
        check_digests(a.workload, a.seed, digests)
        checked = check_in_process(workdir, server.master_path(), a.workload,
                                   load.reqs, load.results)
        metrics = end_to_end(load, setups, a.workload, ok)
        units = END_TO_END_UNITS
        if a.trace:
            tload, tserver, _ = serve(workdir, a.workload, a.seed, a.seconds,
                                      True, 1)
            tok, _, tdigests = analyse(tload, a.workload)
            n = min(len(digests), len(tdigests))
            if digests[:n] != tdigests[:n]:
                raise BenchError("traced REPs differ from untraced REPs")
            metrics, probe = per_layer(tload, load, tserver, workdir,
                                       a.workload, tok)
            units = PER_LAYER_UNITS
            print("rec_cost constants (tuners/tuner.hpp): kActorForward=%g s "
                  "kCriticPair=%g s kTrainStep=%g s" %
                  (probe["rec_cost.kActorForward"],
                   probe["rec_cost.kCriticPair"],
                   probe["rec_cost.kTrainStep"]))
        failed_frac = len(known) / load.sent
        print("workload %s seed %d: %d requests sent, %d ok, %d typed "
              "ok:false (failed_frac %.4f), %d checked against in-process "
              "run_session" % (a.workload, a.seed, load.sent, len(ok),
                               len(known), failed_frac, checked))
        for rid, err in known:
            print("  failed %s: %s" % (rid, err))
        print("latency samples: %d (p90 leaves %d beyond it); host CPU "
              "steal during the window: %.1f%%" %
              (load.sent, load.sent - int(0.9 * load.sent),
               100 * load.steal_frac))
        for k, v in metrics.items():
            print("  %-36s %14.6f %s" % (k, v, units[k]))
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": True, "attempted": load.sent, "failed": 0,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
