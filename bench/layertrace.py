"""Per-layer tracing of swapornot from outside the library.

``Tracer.installed`` rebinds the public module-level functions at each layer
boundary to timing wrappers and puts the originals back on exit; no library
file changes.  Keyed-BLAKE2b blocks are counted by a ``PrfKey`` subclass
(``Tracer.key_class``) whose ``block()`` reports to the tracer, so a traced
workload must hand the library keys of that class.

Spans nest on one stack: a span's self time is its duration minus the
durations of the spans and blocks that ran inside it.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

_clock = time.perf_counter_ns


def _subkeys(args, kwargs, result, counts):
    counts["subkeys"] += len(result)


def _tweak_bytes(args, kwargs, result, counts):
    tweak = args[1] if len(args) > 1 else kwargs.get("tweak", b"")
    counts["tweak_bytes"] += len(tweak)


def _rounds(args, kwargs, result, counts):
    counts["rounds"] += args[1].rounds


def _states(args, kwargs, result, counts):
    dist = args[0]
    counts["states"] += len(dist.probs)
    counts["state_subkeys"] += len(dist.probs) * dist.domain.size


# (module, attribute, count hook).  Each attribute is how the library itself
# reaches the function: fpe calls the codec, the planner and the cipher loop
# through its own globals, the cipher reaches the PRF as ``prf.<name>``, the
# planner and the mixing sweep reach bounds as ``bounds.<name>``, and cli
# reaches the sweep as ``mixing.validation_grid``.  Rebinding the attribute
# therefore intercepts every call.
BOUNDARIES = [
    ("fpe", "encode_digits", None),
    ("fpe", "decode_digits", None),
    ("fpe", "plan_rounds", None),
    ("fpe", "encipher", _rounds),
    ("fpe", "decipher", _rounds),
    ("bounds", "min_rounds", None),
    ("bounds", "ncpa_bound", None),
    ("prf", "derive_subkeys", _subkeys),
    ("prf", "tweak_digest", _tweak_bytes),
    ("prf", "round_bit", None),
    ("mixing", "validation_grid", None),
    ("mixing", "step", _states),
    ("mixing", "tvd_to_stationary", None),
    ("cli", "cli_main", None),
]

# validation_grid is a generator: its work happens while it is iterated.
_GENERATORS = {"mixing.validation_grid"}


class Tracer:
    """Span times, call counts and PRF-block counts for one traced run."""

    def __init__(self) -> None:
        self.total_ns: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        # PRF blocks by the innermost span they ran in.
        self.blocks: Counter[str | None] = Counter()
        self.block_ns = 0
        # (duration_ns, children_ns) of every root span, in order.
        self.roots: list[tuple[int, int]] = []
        # Open spans, innermost last: [name, children_ns].
        self._stack: list[list] = []

    def _close(self, name: str, frame: list, elapsed: int) -> None:
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1][1] += elapsed
        else:
            self.roots.append((elapsed, frame[1]))
        self.total_ns[name] += elapsed
        self.self_ns[name] += elapsed - frame[1]
        self.calls[name] += 1

    def span(self, name: str, fn, hook=None):
        """``fn`` wrapped so that each call is recorded as a span called ``name``."""
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, frame, _clock() - start)
            if hook is not None:
                hook(args, kwargs, result, self.counts)
            return result

        return traced

    def _generator_span(self, name: str, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                frame = [name, 0]
                stack.append(frame)
                start = _clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(name, frame, _clock() - start)
                yield item

        return traced

    def key_class(self, prf_key_cls):
        """A subclass of ``prf_key_cls`` whose blocks are counted and timed."""
        tracer = self

        class CountingKey(prf_key_cls):
            def block(self, message: bytes) -> bytes:
                start = _clock()
                out = prf_key_cls.block(self, message)
                elapsed = _clock() - start
                tracer.block_ns += elapsed
                stack = tracer._stack
                if stack:
                    stack[-1][1] += elapsed
                    tracer.blocks[stack[-1][0]] += 1
                else:
                    tracer.blocks[None] += 1
                return out

        return CountingKey

    @contextmanager
    def installed(self, modules: dict):
        """Rebind every boundary in ``modules`` (name -> module) while the block runs."""
        saved = []
        try:
            for module_name, attr, hook in BOUNDARIES:
                module = modules[module_name]
                original = getattr(module, attr, None)
                if original is None:  # gone from the library: its metrics read 0
                    continue
                saved.append((module, attr, original))
                name = f"{module_name}.{attr}"
                if name in _GENERATORS:
                    wrapped = self._generator_span(name, original)
                else:
                    wrapped = self.span(name, original, hook)
                setattr(module, attr, wrapped)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def metrics(
        self, ops: int, overhead_ratio: float, speed: float = 1.0
    ) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over ``ops`` root spans, as name -> (value, unit).

        Times are per op unless the name says per call, and are multiplied
        by ``speed`` (the run's factor to reference host speed); a layer that
        did not run reads 0.
        """
        tot, own, calls, counts = self.total_ns, self.self_ns, self.calls, self.counts

        def per_op(value, scale=1.0):
            return value / ops * scale

        def ratio(num, den):
            return num / den if den else 0.0

        us, s = 1e-3 * speed, 1e-9 * speed
        draws = self.blocks["prf.derive_subkeys"]
        all_blocks = sum(self.blocks.values())
        return {
            "fpe.codec_us": (per_op(tot["fpe.encode_digits"] + tot["fpe.decode_digits"], us), "us"),
            "fpe.plan_us": (per_op(tot["fpe.plan_rounds"], us), "us"),
            "fpe.self_us": (per_op(own["fpe.op"], us), "us"),
            "prf.derive_subkeys_us": (per_op(tot["prf.derive_subkeys"], us), "us"),
            "prf.subkey_draws_per_op": (per_op(draws), "count"),
            "prf.subkey_accept_ratio": (ratio(counts["subkeys"], draws), "ratio"),
            "prf.tweak_digest_us": (per_op(tot["prf.tweak_digest"], us), "us"),
            "prf.tweak_bytes_per_op": (per_op(counts["tweak_bytes"]), "B"),
            "prf.round_bit_us": (ratio(tot["prf.round_bit"], calls["prf.round_bit"]) * us, "us"),
            "prf.round_bits_per_op": (per_op(calls["prf.round_bit"]), "count"),
            "prf.blocks_per_op": (per_op(all_blocks), "count"),
            "prf.block_ns": (ratio(self.block_ns, all_blocks) * speed, "ns"),
            "cipher.encipher_us": (per_op(tot["fpe.encipher"], us), "us"),
            "cipher.decipher_us": (per_op(tot["fpe.decipher"], us), "us"),
            "cipher.loop_self_us": (per_op(own["fpe.encipher"] + own["fpe.decipher"], us), "us"),
            "cipher.rounds_per_op": (per_op(counts["rounds"]), "count"),
            "bounds.min_rounds_us": (per_op(tot["bounds.min_rounds"], us), "us"),
            "bounds.min_rounds_calls_per_op": (per_op(calls["bounds.min_rounds"]), "count"),
            "bounds.ncpa_bound_us": (per_op(tot["bounds.ncpa_bound"], us), "us"),
            "bounds.ncpa_bound_calls": (per_op(calls["bounds.ncpa_bound"]), "count"),
            "mixing.validation_grid_s": (per_op(tot["mixing.validation_grid"], s), "s"),
            "mixing.step_s": (per_op(tot["mixing.step"], s), "s"),
            "mixing.step_calls": (per_op(calls["mixing.step"]), "count"),
            "mixing.states_stepped": (per_op(counts["states"]), "count"),
            "mixing.step_ns_per_state_subkey": (
                ratio(tot["mixing.step"], counts["state_subkeys"]) * speed,
                "ns",
            ),
            "mixing.tvd_s": (per_op(tot["mixing.tvd_to_stationary"], s), "s"),
            "cli.self_s": (per_op(own["cli.cli_main"], s), "s"),
            "trace.overhead_ratio": (overhead_ratio, "ratio"),
        }
