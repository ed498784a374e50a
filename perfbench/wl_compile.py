"""compile-gallery and compile-scale: compile cost in three cache states.

Each round opens two fresh stores.  Per input, in the round's seeded
order: a strict compile in a fresh session (private L1) over the strict
store, which has never seen the input (**cold**, writes through); the
same compile again in that session (**L1-warm**); the same compile in
another fresh session over the now-warm store (**L2-warm**); and a
resilient compile in a fresh session over the resilient store (**cold**).
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path
from typing import Any, Callable, Dict, Hashable, List, Tuple

from perfbench import inputs, oracles
from perfbench.core import RUNG_LABELS, p90, typical
from perfbench.workload import Workload, counter_delta, counter_values, ratio

STATES = ("cold", "l1", "l2", "resilient")

CACHE_COUNTERS = ["fusion.cache.hits", "fusion.cache.misses", "store.hits", "store.misses"]
SOLVER_COUNTERS = ["solver.bellman_ford.pops", "solver.bellman_ford.rounds"]


def session(store_path: Path) -> Any:
    """A session with a private L1 over the given store file."""
    from repro.core.session import Session, SessionCaches, SessionOptions

    return Session(
        options=SessionOptions(store_path=str(store_path)),
        caches=SessionCaches.private(),
    )


class _CompileWorkload(Workload):
    """The cold / L1 / L2 / resilient cycle over a list of inputs."""

    #: Run the resilient compile of item ``i`` in round ``r`` only when
    #: ``(i + r) % resilient_every == 0`` (the ladder costs several fuses).
    resilient_every = 1

    items: List[Any]

    # -- per-workload hooks ---------------------------------------------- #

    def key(self, item: Any) -> str:
        raise NotImplementedError

    def strict(self, s: Any, item: Any) -> Any:
        raise NotImplementedError

    def resilient(self, s: Any, item: Any) -> Any:
        raise NotImplementedError

    def strict_fingerprint(self, out: Any) -> Hashable:
        raise NotImplementedError

    def resilient_fingerprint(self, out: Any) -> Hashable:
        raise NotImplementedError

    def strict_oracle(self, item: Any, out: Any) -> List[str]:
        raise NotImplementedError

    def resilient_oracle(self, item: Any, out: Any) -> List[str]:
        raise NotImplementedError

    def layers(self, item: Any, round_dir: Path, stores: List[Path]) -> None:
        raise NotImplementedError

    # -- the timed region --------------------------------------------------- #

    def measure(self, seconds: float) -> Tuple[Dict[str, float], Dict[str, float]]:
        from repro.store import open_store

        self.samples: Dict[str, List[float]] = {s: [] for s in STATES}
        self.by_input: Dict[str, Dict[str, List[float]]] = {s: {} for s in STATES}
        self.layer_samples: Dict[str, Dict[str, List[float]]] = {}
        self.verified: set = set()
        self.rungs: Dict[str, str] = {}
        self.edges_pruned: Dict[str, int] = {}
        self.bf_counts = [0.0, 0.0]
        before = counter_values(CACHE_COUNTERS)
        start = time.perf_counter()
        rnd = 0
        done = False
        while not done:
            round_dir = self.fresh_dir(f"round{rnd}")
            stores: List[Path] = []
            self.new_store(round_dir / "strict.db", stores)
            self.new_store(round_dir / "resilient.db", stores)
            for idx, item in enumerate(inputs.round_order(self.seed, rnd, self.items)):
                # the first round always completes: every input gets a sample
                if rnd and time.perf_counter() - start >= seconds:
                    break
                self.cycle(item, stores, with_resilient=(idx + rnd) % self.resilient_every == 0)
                if self.rec.trace:
                    self.layers(item, round_dir, stores)
            for path in stores:
                open_store(str(path)).close()
            shutil.rmtree(round_dir)
            rnd += 1
            done = time.perf_counter() - start >= seconds
        counts = counter_delta(before)
        self.info = {f"samples.{k}": len(v) for k, v in self.samples.items()}
        self.info["rounds"] = rnd
        return self.end_to_end(), self.per_layer(counts)

    def cycle(self, item: Any, stores: List[Path], *, with_resilient: bool) -> None:
        key = self.key(item)
        strict_store, resilient_store = stores[0], stores[1]
        cold_session = session(strict_store)
        cold = self.timed("cold", key, lambda: self.strict(cold_session, item))
        if cold is None:
            return
        cold_fp = self.strict_fingerprint(cold)
        self.check(cold_fp, lambda: self.strict_oracle(item, cold), f"{key} cold")
        for state, s in (("l1", cold_session), ("l2", session(strict_store))):
            warm = self.timed(state, key, lambda s=s: self.strict(s, item))
            if warm is not None:
                self.tally.check(
                    oracles.equal_problems(cold_fp, self.strict_fingerprint(warm), state),
                    f"{key} {state}",
                )
        if with_resilient:
            res_session = session(resilient_store)
            out = self.timed("resilient", key, lambda: self.resilient(res_session, item))
            if out is not None:
                self.rungs.setdefault(key, out.rung.label)
                self.check(
                    self.resilient_fingerprint(out),
                    lambda: self.resilient_oracle(item, out),
                    f"{key} resilient",
                )

    @staticmethod
    def new_store(path: Path, stores: List[Path]) -> Path:
        """Create a store file outside any timing; the round closes it."""
        from repro.store import open_store

        open_store(str(path)).stats()
        stores.append(path)
        return path

    def timed(self, state: str, key: str, fn: Callable[[], Any]) -> Any:
        try:
            with self.rec.span(f"compile.{state}", input=key) as ms:
                out = fn()
        except Exception as exc:  # a failed compile is a counted failure
            self.tally.fail(f"{key} {state}: {type(exc).__name__}: {exc}")
            return None
        self.samples[state].append(ms[0])
        self.by_input[state].setdefault(key, []).append(ms[0])
        return out

    def check(self, fp: Hashable, oracle: Callable[[], List[str]], what: str) -> None:
        """Run the full oracle once per distinct result; repeats of a
        verified result are the same result."""
        if fp in self.verified:
            self.tally.ok()
            return
        if self.tally.check(oracle(), what):
            self.verified.add(fp)

    def layer(self, name: str, key: str, fn: Callable[[], Any]) -> Any:
        """Time one direct call into a layer for input ``key``."""
        with self.rec.span(name, input=key) as ms:
            out = fn()
        self.layer_samples.setdefault(name, {}).setdefault(key, []).append(ms[0])
        return out

    # -- reporting ------------------------------------------------------------ #

    def end_to_end(self) -> Dict[str, float]:
        by = self.by_input
        return {
            "latency_ms_p50": typical(by["cold"]),
            "latency_ms_p90": p90(self.samples["cold"]),
            "mode2_ms_p50": typical(by["resilient"]),
            "mode3_ms_p50": typical(by["l1"]),
            "mode4_ms_p50": typical(by["l2"]),
        }

    def per_layer(self, counts: Dict[str, float]) -> Dict[str, float]:
        out: Dict[str, float] = {
            name: typical(vals) for name, vals in sorted(self.layer_samples.items())
        }
        out["perf.l1_hit_ratio"] = ratio(
            counts["fusion.cache.hits"],
            counts["fusion.cache.hits"] + counts["fusion.cache.misses"],
        )
        out["store.l2_hit_ratio"] = ratio(
            counts["store.hits"], counts["store.hits"] + counts["store.misses"]
        )
        fuses = sum(len(v) for v in self.layer_samples.get("fusion.fuse_ms", {}).values())
        out["constraints.bf_pops"] = ratio(self.bf_counts[0], fuses)
        out["constraints.bf_rounds"] = ratio(self.bf_counts[1], fuses)
        for label in RUNG_LABELS:
            out[f"resilience.rung.{label}"] = float(
                sum(1 for r in self.rungs.values() if r == label)
            )
        return out

    def verify(self, g: Any, res: Any, key: str) -> None:
        """``verify_retiming`` as the fusion driver and the memo-hit path
        call it (sampling at most 100 cycles)."""
        from repro.retiming.verify import verify_retiming

        self.layer(
            "retiming.verify_ms", key, lambda: verify_retiming(g, res.retiming, cycle_limit=100)
        )

    def cold_fuse(self, s: Any, g: Any, key: str) -> Any:
        """Graph-level cold fuse, timed as ``fusion.fuse_ms``, with its
        Bellman-Ford work counted."""
        from repro.fusion import fuse

        before = counter_values(SOLVER_COUNTERS)
        with s.activate():
            res = self.layer("fusion.fuse_ms", key, lambda: fuse(g))
        delta = counter_delta(before)
        self.bf_counts = [
            self.bf_counts[0] + delta["solver.bellman_ford.pops"],
            self.bf_counts[1] + delta["solver.bellman_ford.rounds"],
        ]
        return res


# ------------------------------------------------------------------------- #


class CompileGallery(_CompileWorkload):
    """The eight gallery DSL programs through the full pipelines."""

    name = "compile-gallery"

    def setup(self) -> None:
        from repro.codegen import ArrayStore, run_original
        from repro.loopir import parse_program

        self.items = inputs.gallery_sources()
        self.refs: Dict[str, Tuple[Any, Any]] = {}
        for key, src in self.items:
            nest = parse_program(src)
            base = ArrayStore.for_program(
                nest, inputs.ORACLE_SIZE, inputs.ORACLE_SIZE, seed=inputs.array_seed(self.seed, key)
            )
            ref = run_original(nest, inputs.ORACLE_SIZE, inputs.ORACLE_SIZE, store=base.copy())
            self.refs[key] = (base, ref)
        warm = self.fresh_dir("warmup")
        for _, src in self.items:  # first-call costs (lazy imports) stay out of timing
            session(warm / "strict.db").fuse_program(src)
            session(warm / "resilient.db").fuse_program_resilient(src)

    def key(self, item: Any) -> str:
        return item[0]

    def strict(self, s: Any, item: Any) -> Any:
        return s.fuse_program(item[1])

    def resilient(self, s: Any, item: Any) -> Any:
        return s.fuse_program_resilient(item[1])

    def strict_fingerprint(self, out: Any) -> Hashable:
        return (oracles.fusion_fingerprint(out.fusion), _artifact_fp(out.fused))

    def resilient_fingerprint(self, out: Any) -> Hashable:
        return (
            oracles.resilient_fingerprint(out.resilient),
            _artifact_fp(out.resilient.artifact),
        )

    def strict_oracle(self, item: Any, out: Any) -> List[str]:
        base, ref = self.refs[item[0]]
        return oracles.fusion_problems(out.mldg, out.fusion) + oracles.artifact_problems(
            out.fused, ref, base, inputs.ORACLE_SIZE
        )

    def resilient_oracle(self, item: Any, out: Any) -> List[str]:
        base, ref = self.refs[item[0]]
        return oracles.resilient_problems(out.mldg, out.resilient) + oracles.artifact_problems(
            out.resilient.artifact, ref, base, inputs.ORACLE_SIZE
        )

    def layers(self, item: Any, round_dir: Path, stores: List[Path]) -> None:
        """Each front-end, solver and codegen layer called on its own, cold."""
        from repro.analysis.prune import prune_mldg
        from repro.codegen import apply_fusion
        from repro.depend import extract_mldg
        from repro.graph.legality import check_legal
        from repro.lint.engine import lint_nest
        from repro.loopir import parse_program
        from repro.loopir.validate import model_findings
        from repro.resilience.ladder import fuse_resilient
        from repro.resilience.pipeline import program_gate

        key, src = item
        s = session(self.new_store(round_dir / f"layers-{key}.db", stores))
        ladder = session(self.new_store(round_dir / f"ladder-{key}.db", stores))
        with self.rec.span("layers", input=key):
            with s.activate():
                nest = self.layer("loopir.parse_ms", key, lambda: parse_program(src))
                self.layer("loopir.validate_ms", key, lambda: model_findings(nest))
                self.layer("lint.lint_ms", key, lambda: lint_nest(nest, source=src))
                g = self.layer("depend.extract_ms", key, lambda: extract_mldg(nest, check=False))
                g, pruned = self.layer("analysis.prune_ms", key, lambda: prune_mldg(nest, g))
                self.edges_pruned[key] = pruned.removed_vector_count
                self.layer("graph.legality_ms", key, lambda: check_legal(g))
            res = self.cold_fuse(s, g, key)
            with s.activate():
                self.verify(g, res, key)
                self.layer(
                    "codegen.apply_fusion_ms", key,
                    lambda: apply_fusion(nest, res.retiming, mldg=g),
                )
            with ladder.activate():
                self.layer(
                    "resilience.ladder_ms", key,
                    lambda: fuse_resilient(g, gate=program_gate(nest, g)),
                )

    def per_layer(self, counts: Dict[str, float]) -> Dict[str, float]:
        out = super().per_layer(counts)
        if self.rec.trace:
            out["analysis.edges_pruned"] = float(sum(self.edges_pruned.values()))
            parts = [
                "loopir.parse_ms", "loopir.validate_ms", "lint.lint_ms",
                "depend.extract_ms", "analysis.prune_ms", "graph.legality_ms",
                "fusion.fuse_ms", "codegen.apply_fusion_ms",
            ]
            # what Session.fuse_program spends outside the layers it calls
            out["core.pipeline_overhead_ms"] = typical(self.by_input["cold"]) - sum(
                out[p] for p in parts
            )
        return out


def _artifact_fp(artifact: Any) -> Hashable:
    """Body order and shifts of a fused program (or the text of a nest)."""
    if artifact is None:
        return None
    body = getattr(artifact, "body", None)
    if body is not None:
        return tuple((n.label, oracles.vec(n.shift)) for n in body)
    from repro.loopir.printer import format_program

    return format_program(artifact)


# ------------------------------------------------------------------------- #


class CompileScale(_CompileWorkload):
    """Seeded random MLDGs of 16..39 nodes fused at graph level."""

    name = "compile-scale"
    resilient_every = 3

    def setup(self) -> None:
        self.items = [(spec, inputs.build_graph(spec)) for spec in inputs.scale_specs(self.seed)]
        warm = self.fresh_dir("warmup")
        smallest = self.items[0][1]  # first-call costs stay out of timing
        session(warm / "strict.db").fuse(smallest)
        with session(warm / "resilient.db").activate():
            from repro.resilience.ladder import fuse_resilient

            fuse_resilient(smallest)

    def key(self, item: Any) -> str:
        return item[0].key

    def strict(self, s: Any, item: Any) -> Any:
        return s.fuse(item[1])

    def resilient(self, s: Any, item: Any) -> Any:
        from repro.resilience.ladder import fuse_resilient

        with s.activate():
            return fuse_resilient(item[1])

    def strict_fingerprint(self, out: Any) -> Hashable:
        return oracles.fusion_fingerprint(out)

    def resilient_fingerprint(self, out: Any) -> Hashable:
        return oracles.resilient_fingerprint(out)

    def strict_oracle(self, item: Any, out: Any) -> List[str]:
        return oracles.fusion_problems(item[1], out)

    def resilient_oracle(self, item: Any, out: Any) -> List[str]:
        return oracles.resilient_problems(item[1], out)

    def layers(self, item: Any, round_dir: Path, stores: List[Path]) -> None:
        from repro.graph.legality import check_legal

        spec, g = item
        key = spec.key
        s = session(self.new_store(round_dir / f"layers-{key}.db", stores))
        with self.rec.span("layers", input=key):
            with s.activate():
                self.layer("graph.legality_ms", key, lambda: check_legal(g))
            res = self.cold_fuse(s, g, key)
            with s.activate():
                self.verify(g, res, key)

    def per_layer(self, counts: Dict[str, float]) -> Dict[str, float]:
        out = super().per_layer(counts)
        if self.samples["resilient"]:
            # graph level, the resilient fuse *is* the ladder call
            out["resilience.ladder_ms"] = typical(self.by_input["resilient"])
        return out

