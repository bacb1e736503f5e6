"""Host-speed calibration: fixed reference work timed while the operations run.

The CPU speed of a small shared VM changes with load elsewhere on the host,
in regimes of a few seconds to minutes, by up to 2x. During timed passes an
interval timer interrupts the program every INTERVAL_S and runs one
calibration chunk, fixed work outside cipheropt, in the signal handler. An
operation that no chunk ran inside (one shorter than the interval, or any
operation while the timer is off) is followed by chunks for SHARE of its
time instead; set-up, timed in fresh processes, is too. A chunk is three
parts of about equal time, the kinds of work the workloads do: an
interpreter loop over a small dict, AES-GCM sealing of 64-byte messages,
and reads in random order from a list of 100k floats (a few MiB, more than
a core's own caches hold).

An operation's raw time excludes the chunks that ran inside it. It is
reported at reference speed: a raw time `t` during which chunks took `c`
seconds each on average becomes `t * REFERENCE_CHUNK_S / c`, the time the
same work would take on a host that runs one chunk in REFERENCE_CHUNK_S. A
change in the program moves that figure one for one; a change in the
host's speed mostly cancels out.
"""
from __future__ import annotations

import random
import signal
import time

from cryptography.hazmat.primitives.ciphers.aead import AESGCM

# One chunk's time on the reference host (the 2-vCPU VM the benchmark was
# built on, in its usual state); it only sets the scale of the figures.
REFERENCE_CHUNK_S = 0.017
INTERVAL_S = 0.06
SHARE = 0.25
LOOP = 30_000
SEALS = 3_600
VALUES = 100_000
READS = 18_000


class Calibration:
    """Reference work run between and inside timed operations.

    Its data (about 5 MiB) is made here, after set-up has been timed; it
    adds the same amount to every run's peak RSS.
    """

    def __init__(self):
        rng = random.Random(0)
        self.values = [float(i) for i in range(VALUES)]
        self.order = rng.sample(range(VALUES), READS)
        self.cipher = AESGCM(bytes(range(16)))
        self.chunk()  # first calls into the cipher are slower
        self.chunks = 0
        self.seconds = 0.0

    def chunk(self):
        """One unit of reference work."""
        table, total = {}, 0
        for i in range(LOOP):
            table[i & 255] = total
            total += (i * 7) % 13
        nonce, message = bytes(12), bytes(64)
        for _ in range(SEALS):
            self.cipher.encrypt(nonce, message, None)
        values, acc = self.values, 0.0
        for i in self.order:
            acc += values[i]
        return total, acc

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.chunk()
        self.seconds += time.perf_counter() - start
        self.chunks += 1
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def start(self):
        """Arm the timer: from now on a chunk runs every INTERVAL_S."""
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def begin(self):
        """A mark for `end`."""
        return time.perf_counter(), self.chunks, self.seconds

    def end(self, mark) -> tuple:
        """(seconds at reference speed, speed factor) of the time since `mark`."""
        start, chunks, seconds = mark
        raw = time.perf_counter() - start - (self.seconds - seconds)
        if self.chunks > chunks:
            speed = REFERENCE_CHUNK_S * (self.chunks - chunks) / (self.seconds - seconds)
        else:
            speed = self.after(raw)
        return raw * speed, speed

    def after(self, seconds: float) -> float:
        """Chunks for SHARE of `seconds`, at least one; returns the speed factor.

        The factor is REFERENCE_CHUNK_S over the chunks' mean time: a raw
        time times it is the time at reference speed.
        """
        budget = SHARE * seconds
        chunks, spent = 0, 0.0
        while not chunks or spent < budget:
            start = time.perf_counter()
            self.chunk()
            spent += time.perf_counter() - start
            chunks += 1
        return REFERENCE_CHUNK_S * chunks / spent
