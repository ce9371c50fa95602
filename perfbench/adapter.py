"""The benchmark's only door into ``repro``.

Each workload is a class with the same steps:

- set-up, timed in two phases: ``build()`` makes the fleet or the model
  (cost models, instances, weights) and ``make_inputs()`` the seeded
  inputs from ``inputs.py``;
- ``fresh()`` builds the objects one pass consumes — the simulator and
  the router mutate requests and instances in place, so every pass gets
  its own, built before the pass (``run.py`` times it as a stage of its
  own, outside the serve stage);
- ``run(fresh)`` is the timed pass.  It returns an :class:`Outcome`
  with host seconds per stage and the program's outputs.

``layer_targets()`` names the public callables the traced run wraps,
each at the name its caller resolves.  A later API move in ``repro``
should touch this file only.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

import repro.compression.quant.gear
import repro.compression.quant.kivi
import repro.model.attention
import repro.model.layers
import repro.model.transformer
import repro.serving as serving
import repro.serving.fleet
from repro.analysis.evaluation import evaluate_algorithm
from repro.compression import NoCompression, create
from repro.datasets.longbench import LongBenchSim
from repro.datasets.sharegpt import ShareGPTSim
from repro.engines import ServingCostModel
from repro.engines.presets import get_engine
from repro.hardware.specs import get_gpu
from repro.model.arch import get_arch
from repro.model.config import llama_sim_config
from repro.model.generate import generate
from repro.model.layers import AttentionWeights, MLPWeights
from repro.model.sampling import Sampler
from repro.model.transformer import FunctionalTransformer
from repro.serving import (
    Autoscaler,
    Cluster,
    DisaggFleet,
    EventLoop,
    EventType,
    FCFSPolicy,
    LatencySummary,
    PrefixIndex,
    PriorityPolicy,
    RoutedRequest,
    Router,
    RoutingPolicy,
    ServerInstance,
    ServingRequest,
    ShortestFirstPolicy,
    SlackPolicy,
    StepMetrics,
    Trace,
    make_policy,
)
from repro.serving.fleet import PREFILL_SUFFIX
from repro.serving.replay import (
    FALLBACK_SUFFIX,
    build_scenario,
    fleet_scenario,
    logical_id,
    workload_specs,
)
from repro.tools.negative_sampler import NegativeSampleAnalysis, ScoredSample

import inputs

@dataclass
class Outcome:
    """One pass: host seconds per stage, plus what the program produced."""

    stages: Dict[str, float]
    requests: int            # requests the pass served or generated for
    tokens: int              # prompt + output tokens of those requests
    sim_requests: int        # requests the simulator served in SIM_STAGES
    #: everything the pass produced, for the bitwise cross-pass check
    digest: tuple
    #: simulated and score metrics (deterministic per seed)
    metrics: Dict[str, float]
    #: layer counts and ratios taken from the outputs
    counts: Dict[str, float]
    #: (check name, passed) per correctness check
    checks: List[Tuple[str, bool]] = field(default_factory=list)
    rejected: int = 0

    @property
    def seconds(self) -> float:
        return sum(self.stages.values())


def _cost_model() -> ServingCostModel:
    return ServingCostModel(
        get_arch("llama-7b"), get_gpu("a6000"), get_engine("lmdeploy")
    )


def _spec(algo: str):
    return (NoCompression() if algo == "fp16" else create(algo)).cost_spec()


def _timed(stages: Dict[str, float], name: str, fn: Callable, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    stages[name] = stages.get(name, 0.0) + time.perf_counter() - t0
    return out


# ----------------------------------------------------------------------
# serving folds shared by every workload that simulates
# ----------------------------------------------------------------------
def _decode_gap_p99(traces: Sequence[Trace]) -> Tuple[float, int]:
    """Token-weighted p99 of the time between a request's output tokens.

    Each running request emits one token per decode step of its
    instance, so a token's gap is its step's seconds plus every prefill
    (chunk) the instance ran since its previous step — the stall a long
    prompt imposes on the batch.  Returns ``(p99, tokens)``.
    """
    gaps: List[float] = []
    weights: List[int] = []
    for trace in traces:
        events = [
            e
            for kind in (
                EventType.DECODE_STEP, EventType.PREFILL, EventType.PREFILL_CHUNK
            )
            for e in trace.of_kind(kind)
        ]
        events.sort(key=lambda e: (e.instance, e.time))
        stall: Dict[str, float] = {}
        for e in events:
            if e.kind is EventType.DECODE_STEP:
                gaps.append(e.data["seconds"] + stall.get(e.instance, 0.0))
                weights.append(int(e.data["batch"]))
                stall[e.instance] = 0.0
            else:
                stall[e.instance] = stall.get(e.instance, 0.0) + e.data["seconds"]
    g = np.asarray(gaps)
    w = np.asarray(weights, dtype=np.int64)
    order = np.argsort(g, kind="stable")
    cum = np.cumsum(w[order])
    return float(g[order][np.searchsorted(cum, 0.99 * cum[-1])]), int(cum[-1])


def _serving_metrics(
    requests: Sequence[ServingRequest], traces: Sequence[Trace]
) -> Dict[str, float]:
    """Simulated end-to-end metrics over logical request records.

    A rejected request counts as missing its TTFT deadline.
    """
    served = [r for r in requests if not r.rejected and r.finish is not None]
    ttft = np.array([r.ttft for r in served])
    deadlined = [r for r in requests if r.ttft_deadline is not None]
    met = sum(1 for r in deadlined if not r.rejected and r.ttft_met)
    tbot_p99, tokens = _decode_gap_p99(traces)
    return {
        "sim_ttft_p50_s": float(np.percentile(ttft, 50)),
        "sim_ttft_p99_s": float(np.percentile(ttft, 99)),
        "sim_tbot_p99_s": tbot_p99,
        "sim_goodput_tokens_per_s": float(
            LatencySummary.from_requests(served).goodput
        ),
        "sim_ttft_attainment": met / len(deadlined),
        "samples.requests": float(len(served)),
        "samples.tokens": float(tokens),
    }


def _sim_counts(folds: Sequence[StepMetrics], traces: Sequence[Trace],
                requests: Sequence[ServingRequest]) -> Dict[str, float]:
    """Simulator and trace layer counts of one pass."""
    waits = np.array([r.queue_delay for r in requests
                      if not r.rejected and r.finish is not None])
    steps = sum(f.decode_steps for f in folds)
    return {
        "sim.decode_steps": float(steps),
        "sim.preempts": float(sum(f.preempts for f in folds)),
        "sim.batch_mean": float(
            sum(f.mean_batch_occupancy * f.decode_steps for f in folds)
            / max(steps, 1)
        ),
        "sim.queue_wait_p50_s": float(np.percentile(waits, 50)),
        "sim.queue_wait_p99_s": float(np.percentile(waits, 99)),
        "trace.events": float(sum(len(t) for t in traces)),
        "trace.bytes": float(
            sum(t.memory_stats()["buffer_bytes"] for t in traces)
        ),
    }


def _fold_key(fold: StepMetrics) -> tuple:
    return tuple(sorted(fold.as_dict().items()))


def _request_key(requests: Sequence[ServingRequest]) -> tuple:
    return tuple(
        (r.request_id, r.first_token, r.finish, r.generated, r.rejected,
         r.preemptions)
        for r in requests
    )


def _ends_exactly_once(traces: Sequence[Trace], submitted: Sequence[str]) -> bool:
    """Every submitted logical request ends (FINISH or REJECT) exactly once.

    Stages fold onto their logical id: a rejected ``#pf`` prefill stage
    ends its request, a finished one hands it on; a ``#fb`` fallback
    re-decode must itself end exactly once, on top of its original.
    """
    logical: Dict[str, int] = {}
    stages: Dict[str, int] = {}
    for trace in traces:
        for kind in (EventType.FINISH, EventType.REJECT):
            for e in trace.of_kind(kind):
                rid = e.request_id
                if rid.endswith(FALLBACK_SUFFIX) or (
                    rid.endswith(PREFILL_SUFFIX) and kind is EventType.FINISH
                ):
                    stages[rid] = stages.get(rid, 0) + 1
                else:
                    lid = logical_id(rid)
                    logical[lid] = logical.get(lid, 0) + 1
    return (
        set(logical) == set(submitted)
        and all(v == 1 for v in logical.values())
        and all(v == 1 for v in stages.values())
    )


def _quality(ratios: Sequence[float]) -> Dict[str, float]:
    """``route_quality`` of the kept score ratios.  No model runs on a
    serving workload, so its ``gen_task_score`` is a placeholder: the
    inputs' lossless task score, a constant that checks nothing."""
    return {"route_quality": float(np.mean(ratios)),
            "gen_task_score": inputs.BASELINE_SCORE}


def _serving_request(rec: Dict[str, object]) -> ServingRequest:
    return ServingRequest(
        request_id=rec["request_id"],
        arrival=rec["arrival"],
        prompt_len=rec["prompt_len"],
        response_len=rec["response_len"],
        priority=rec.get("priority", 0),
        ttft_deadline=rec.get("ttft_deadline"),
    )


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Workload:
    """Set-up in two timed phases: ``build`` (fleet or model) and
    ``make_inputs`` (the seeded inputs)."""

    name = ""
    #: stages of a pass that run the serving simulator
    SIM_STAGES: Tuple[str, ...] = ("serve",)
    #: stages whose host seconds gen_tokens_per_s divides by (the whole
    #: pass, ``fresh()`` and folds included, when None)
    TOKEN_STAGES = None

    def __init__(self, seed: int, out_dir: str) -> None:
        self.seed = seed
        self.out_dir = out_dir
        t0 = time.perf_counter()
        self.build()
        t1 = time.perf_counter()
        self.make_inputs()
        self.setup_s = {
            "build_s": t1 - t0, "inputs_s": time.perf_counter() - t1,
        }

    def build(self) -> None:
        raise NotImplementedError

    def make_inputs(self) -> None:
        raise NotImplementedError


class DeepQueue(Workload):
    """One saturated FP16 instance: dynamic admission, priority policy."""

    name = "sim_deep_queue"

    def build(self) -> None:
        self.cost_model = _cost_model()
        self.spec = _spec("fp16")
        self.records = []
        self.fresh()

    def make_inputs(self) -> None:
        self.records = inputs.deep_queue(self.seed)

    def fresh(self):
        inst = ServerInstance(
            self.cost_model, self.spec,
            scheduler=make_policy("priority"), admission="dynamic",
        )
        return inst, [_serving_request(r) for r in self.records], Trace()

    def run(self, fresh) -> Outcome:
        inst, requests, trace = fresh
        stages: Dict[str, float] = {}
        result = _timed(stages, "serve", inst.run, requests, trace=trace)
        fold = _timed(stages, "fold", StepMetrics.from_trace, trace)
        _timed(stages, "fold", serving.request_latencies, trace)
        _timed(stages, "fold", serving.queue_delays, trace)
        reqs = result.requests
        metrics = _serving_metrics(reqs, [trace])
        metrics.update(_quality([1.0] * len(reqs)))  # lossless instance
        counts = _sim_counts([fold], [trace], reqs)
        return Outcome(
            stages=stages,
            requests=len(reqs),
            tokens=sum(r.prompt_len + r.generated for r in reqs),
            sim_requests=len(reqs),
            digest=(_fold_key(fold), _request_key(reqs)),
            metrics=metrics,
            counts=counts,
            checks=[("ends_once", _ends_exactly_once(
                [trace], [r["request_id"] for r in self.records]))],
            rejected=sum(r.rejected for r in reqs),
        )


class FleetReplay(Workload):
    """Autoscaled disaggregated kivi-4 fleet: record, export, reload,
    replay, mine."""

    name = "fleet_replay"
    # the replay re-serves the recorded workload: simulator work too,
    # and a serve stage alone (~1.3 s a pass) timed too noisily
    SIM_STAGES = ("serve", "replay")
    ALGO = "kivi-4"
    POOLS = dict(prefill=12, decode=16, prefill_active=4, decode_active=8)
    # a quarter-second control tick and a floor of two instances per
    # pool: a slower loop drained a pool to one instance in a trough and
    # met the next storm late, by a margin that swung from seed to seed
    AUTOSCALER = dict(
        tick=0.25, ttft_target=0.95, queue_high=3.0, queue_low=0.5,
        occ_high=0.85, occ_low=0.25, cooldown_ticks=1, min_active=2,
    )

    def build(self) -> None:
        inst = dict(algo=self.ALGO, max_batch=8)
        pools = self.POOLS
        self.scenario = fleet_scenario(
            decode=[inst] * pools["decode"], prefill=[inst] * pools["prefill"],
            prefill_active=pools["prefill_active"],
            decode_active=pools["decode_active"], autoscaler=self.AUTOSCALER,
        )
        build_scenario(self.scenario)
        self.path = os.path.join(self.out_dir, f"fleet-{os.getpid()}.jsonl")

    def make_inputs(self) -> None:
        self.records = inputs.fleet(self.seed)
        self.ratio = {
            r["request_id"]: inputs.score_ratios(r["sample_class"])[self.ALGO]
            for r in self.records
        }

    def fresh(self):
        requests = [_serving_request(r) for r in self.records]
        return (build_scenario(self.scenario), requests,
                workload_specs(requests), Trace())

    def run(self, fresh) -> Outcome:
        fleet, requests, specs, trace = fresh
        stages: Dict[str, float] = {}
        result = _timed(stages, "serve", fleet.serve, requests, trace=trace)
        fold = _timed(stages, "fold", StepMetrics.from_trace, trace)
        _timed(stages, "export", serving.dump_jsonl, trace, self.path,
               scenario=self.scenario, workload=specs)
        loaded = _timed(stages, "load", serving.load_jsonl, self.path)
        report = _timed(stages, "replay", serving.replay_trace, loaded)
        mined = _timed(stages, "mine", serving.mine, loaded)
        export_bytes = os.path.getsize(self.path)
        os.remove(self.path)

        logical = result.requests
        served = [r for r in logical if not r.rejected]
        metrics = _serving_metrics(logical, [trace])
        metrics.update(_quality([self.ratio[r.request_id] for r in served]))
        counts = _sim_counts([fold], [trace], logical)
        counts.update({
            "fleet.scale_actions": float(fold.scale_ups + fold.scale_downs),
            "fleet.kv_transfers": float(fold.kv_transfers),
            "telemetry.export_bytes": float(export_bytes),
            "telemetry.export_events_per_s": len(trace) / stages["export"],
            "telemetry.load_events_per_s": len(loaded) / stages["load"],
            "replay.events_per_s": float(report.events_per_second),
            "replay.exact": float(report.exact),
            "mining.anomalies": float(len(mined.anomalies)),
            "mining.incidents": float(len(mined.incidents)),
        })
        return Outcome(
            stages=stages,
            requests=len(logical),
            tokens=sum(r.prompt_len + r.generated for r in logical),
            sim_requests=len(logical) + report.n_requests,
            digest=(_fold_key(fold), _request_key(logical),
                    _fold_key(report.replayed),
                    tuple((i.detector, i.start, i.end, i.score)
                          for i in mined.incidents)),
            metrics=metrics,
            counts=counts,
            checks=[
                ("ends_once", _ends_exactly_once(
                    [trace], [r["request_id"] for r in self.records])),
                ("export_fold_equal",
                 _fold_key(report.recorded) == _fold_key(fold)),
                ("replay_exact", bool(report.exact)),
            ],
            rejected=len(logical) - len(served),
        )


class RoutedPrefixMix(Workload):
    """Compression-aware online routing with verify-and-fallback over an
    FP16/KIVI/GEAR/StreamingLLM fleet with prefix caches and the slo
    policy."""

    name = "routed_prefix_mix"
    ALGOS = ("fp16", "kivi-4", "gear-4", "stream-512")
    RISK_THETA = 0.25      # Algorithm 1 relative-loss threshold
    RISK_THRESHOLD = 0.5   # verification fails at or above this risk

    def build(self) -> None:
        self.cost_model = _cost_model()
        self.specs = {a: _spec(a) for a in self.ALGOS}
        self.records = []
        self.risk = {}
        self.fresh()

    def make_inputs(self) -> None:
        self.records = inputs.routed(self.seed)
        # the paper's tooling turns per-sample scores into routing risk
        baseline = {}
        by_algo: Dict[str, Dict[str, ScoredSample]] = {
            a: {} for a in inputs.SCORED_ALGOS
        }
        self.ratios: Dict[str, Dict[str, float]] = {}
        for r in self.records:
            rid = r["request_id"]
            baseline[rid] = ScoredSample(rid, "qa", inputs.BASELINE_SCORE)
            self.ratios[rid] = inputs.score_ratios(r["sample_class"])
            for a, ratio in self.ratios[rid].items():
                by_algo[a][rid] = ScoredSample(
                    rid, "qa", inputs.BASELINE_SCORE * ratio
                )
        self.risk = NegativeSampleAnalysis(baseline, by_algo).risk_scores(
            list(inputs.SCORED_ALGOS), self.RISK_THETA
        )

    def _throughput(self, algo: str, batch: int, kv: int) -> float:
        return self.cost_model.decode_throughput(
            batch, kv, self.specs[algo]) or 1.0

    @staticmethod
    def _length(req: RoutedRequest, algo: str) -> float:
        return float(req.lengths_by_algo.get(algo, req.intended_len))

    def fresh(self):
        fleet = [
            ServerInstance(
                self.cost_model, self.specs[a], max_batch=8,
                scheduler=make_policy("slo"), prefix_cache=PrefixIndex(),
            )
            for a in self.ALGOS
        ]
        router = Router(
            fleet, list(self.ALGOS), RoutingPolicy.COMPRESSION,
            throughput_fn=self._throughput, length_fn=self._length,
            risk_threshold=self.RISK_THRESHOLD, fallback=True,
        )
        requests = [
            RoutedRequest(
                request_id=r["request_id"],
                arrival=r["arrival"],
                prompt_len=r["prompt_len"],
                intended_len=r["intended_len"],
                lengths_by_algo=dict(r["lengths_by_algo"]),
                ttft_deadline=r["ttft_deadline"],
                token_ids=r["token_ids"],
                risk=float(self.risk[r["request_id"]]),
            )
            for r in self.records
        ]
        return router, requests, Trace()

    def run(self, fresh) -> Outcome:
        router, requests, trace = fresh
        stages: Dict[str, float] = {}
        result = _timed(stages, "serve", router.serve_online, requests,
                        trace=trace)
        fold = _timed(stages, "fold", StepMetrics.from_trace, trace)
        logical = _timed(stages, "fold", result.effective_requests)
        kept = [
            1.0 if rid in result.fallbacks
            else self.ratios[rid].get(self.ALGOS[idx], 1.0)
            for rid, idx in result.assignment.items()
            if not rid.endswith(FALLBACK_SUFFIX)
        ]
        metrics = _serving_metrics(logical, [trace])
        metrics.update(_quality(kept))
        counts = _sim_counts([fold], [trace], logical)
        lookups = sum(i.prefix_cache.hits + i.prefix_cache.misses
                      for i in router.instances)
        hits = sum(i.prefix_cache.hits for i in router.instances)
        prompt_tokens = sum(r.prompt_len for r in logical)
        counts.update({
            "prefix.hit_ratio": hits / max(lookups, 1),
            "prefix.cached_token_ratio":
                fold.prefix_cached_tokens / max(prompt_tokens, 1),
            "router.reroutes": float(result.reroutes),
            "router.fallbacks": float(len(result.fallbacks)),
            "router.reroute_ratio":
                (result.reroutes + len(result.fallbacks)) / len(requests),
        })
        all_reqs = result.all_requests()
        return Outcome(
            stages=stages,
            requests=len(all_reqs),
            tokens=sum(r.prompt_len + r.generated for r in all_reqs),
            sim_requests=len(all_reqs),
            digest=(_fold_key(fold), _request_key(all_reqs),
                    tuple(sorted(result.assignment.items()))),
            metrics=metrics,
            counts=counts,
            checks=[("ends_once", _ends_exactly_once(
                [trace], [r["request_id"] for r in self.records]))],
            rejected=sum(r.rejected for r in logical),
        )


class GenEval(Workload):
    """The NumPy transformer under the five paper algorithms, and the
    serving simulator pricing the same five algorithms."""

    name = "gen_eval"
    SIM_STAGES = ("serve",)
    TOKEN_STAGES = ("generate",)

    def build(self) -> None:
        self.model = FunctionalTransformer(llama_sim_config())
        self.cost_model = _cost_model()

    def make_inputs(self) -> None:
        longbench, sharegpt = inputs.gen_prompt_plan(self.seed)
        self.samples = [
            LongBenchSim(
                seed=sample_seed, min_context=ctx, max_context=ctx + 1,
            ).build(1, tasks=[task])[0]
            for task, ctx, sample_seed in longbench
        ]
        self.prompts = [
            ShareGPTSim(seed=sample_seed, min_prompt=n, max_prompt=n)
            .build(1)[0].prompt
            for n, sample_seed in sharegpt
        ]
        self.streams = inputs.gen_serving(self.seed)

    def fresh(self):
        return None

    def _generate(self, algo: str):
        cfg = inputs.GEN_EVAL
        records = evaluate_algorithm(
            self.model, self.samples, algo,
            batch_size=cfg["longbench_batch"],
            max_new_tokens=cfg["longbench_max_new"],
        )
        out = generate(
            self.model, self.prompts,
            compressor=None if algo == "fp16" else create(algo),
            sampler=Sampler(temperature=cfg["temperature"], top_p=cfg["top_p"],
                            seed=self.seed + 11),
            max_new_tokens=cfg["sharegpt_max_new"],
        )
        return records, out

    def run(self, fresh) -> Outcome:
        cfg = inputs.GEN_EVAL
        algos = cfg["algos"]
        stages: Dict[str, float] = {}
        generated = []
        served: List[ServingRequest] = []
        traces: List[Trace] = []
        folds: List[StepMetrics] = []
        # each algorithm's serving right after its generation, so the
        # serve stage's ~1 s a pass samples the host across the whole
        # pass: timed in one block after generation, its rate spread by
        # 26% over ten runs, interleaved by 12%
        for algo, stream in zip(algos, self.streams):
            generated.append(_timed(stages, "generate", self._generate, algo))
            inst = ServerInstance(self.cost_model, _spec(algo))
            reqs = [_serving_request(r) for r in stream]
            trace = Trace()
            res = _timed(stages, "serve", inst.run, reqs, trace=trace)
            folds.append(_timed(stages, "serve", StepMetrics.from_trace, trace))
            served.extend(res.requests)
            traces.append(trace)

        scores = {
            a: float(np.mean([r.score for r in records]))
            for a, (records, _) in zip(algos, generated)
        }
        metrics = _serving_metrics(served, traces)
        metrics["gen_task_score"] = float(np.mean(list(scores.values())))
        metrics["route_quality"] = float(
            np.mean([scores[a] / scores["fp16"] for a in algos])
        )
        tokens = sum(
            sum(r.prompt_len + r.response_len for r in records)
            + int(out.prompt_lengths.sum() + out.response_lengths.sum())
            for records, out in generated
        )
        counts = _sim_counts(folds, traces, served)
        all_scores = [r.score for records, _ in generated for r in records]
        return Outcome(
            stages=stages,
            requests=(sum(len(rec) + len(out) for rec, out in generated)
                      + len(served)),
            tokens=tokens,
            sim_requests=len(served),
            digest=(
                tuple((r.sample_id, r.algo, tuple(r.response))
                      for records, _ in generated for r in records),
                tuple(tuple(map(tuple, out.sequences)) for _, out in generated),
                tuple(_fold_key(f) for f in folds),
                _request_key(served),
            ),
            metrics=metrics,
            counts=counts,
            checks=[
                ("scores_in_unit_interval",
                 all(0.0 <= s <= 1.0 for s in all_scores)),
                ("ends_once", _ends_exactly_once(
                    traces, [r["request_id"] for s in self.streams for r in s])),
            ],
            rejected=sum(r.rejected for r in served),
        )


WORKLOADS = {
    w.name: w for w in (DeepQueue, FleetReplay, RoutedPrefixMix, GenEval)
}

#: algorithm label of each compressor class the traced run wraps
COMPRESSOR_ALGOS = ("kivi-4", "gear-4", "h2o-512", "stream-512")


def layer_targets():
    """``(owner, attribute, layer, label)`` for every traced callable.

    Functions imported by name are wrapped in the importing module, at
    the name the caller resolves; methods are wrapped on their class.
    """
    t = []

    def add(layer, owner, *attrs, label=None):
        for attr in attrs:
            t.append((owner, attr, layer, label or f"{layer}.{attr}"))

    add("serving.simulator", ServerInstance, "run")
    add("serving.simulator", Cluster, "run_online")
    add("serving.simulator", EventLoop, "run")
    for cls in (FCFSPolicy, ShortestFirstPolicy, PriorityPolicy, SlackPolicy):
        add("serving.scheduler", cls, "select", label="serving.scheduler.select")
        add("serving.scheduler", cls, "victim", label="serving.scheduler.victim")
    add("engines", ServingCostModel, "prefill", "prefill_chunk",
        "decode_step", "decode_throughput")
    add("serving.trace", Trace, "record", "record_fields",
        "record_decode_steps", "append")
    add("serving.metrics", StepMetrics, "from_trace")
    add("serving.metrics", serving, "request_latencies", "queue_delays")
    add("serving.prefix", PrefixIndex, "peek", "lookup", "insert")
    add("serving.router", Router, "serve_online")
    add("serving.fleet", DisaggFleet, "serve")
    add("serving.fleet", Autoscaler, "step")
    add("hardware.interconnect", repro.serving.fleet, "transfer_time")
    add("serving.telemetry", serving, "dump_jsonl", "load_jsonl")
    add("serving.replay", serving, "replay_trace")
    add("serving.mining", serving, "mine")
    add("model.transformer", FunctionalTransformer, "prefill", "decode_step")
    add("model.attention", repro.model.transformer,
        "naive_attention", "flash_attention")
    add("model.attention", repro.model.attention, "build_score_mask")
    add("model.layers", repro.model.attention, "softmax_inplace")
    add("model.layers", repro.model.layers, "rms_norm")
    add("model.layers", AttentionWeights, "project_qkv", "project_out")
    add("model.layers", MLPWeights, "forward")
    for algo in COMPRESSOR_ALGOS:
        cls = type(create(algo))
        add("compression", cls, "begin", "observe", "compress",
            label=f"compression.{algo}")
    for module in (repro.compression.quant.kivi, repro.compression.quant.gear):
        add("compression", module,
            "quant_dequant_per_channel", "quant_dequant_per_token",
            label="compression.codec")
    add("model.sampling", Sampler, "sample")
    return t


#: layers the traced run reports, in the order of the benchmark table
LAYERS = (
    "serving.simulator", "serving.scheduler", "engines", "serving.trace",
    "serving.metrics", "serving.prefix", "serving.router", "serving.fleet",
    "hardware.interconnect", "serving.telemetry", "serving.replay",
    "serving.mining", "model.transformer", "model.attention", "model.layers",
    "compression", "model.sampling", "setup",
)

#: layer counts a pass takes from the program's outputs
OUTPUT_COUNTS = (
    "sim.decode_steps", "sim.preempts", "sim.batch_mean",
    "sim.queue_wait_p50_s", "sim.queue_wait_p99_s",
    "trace.events", "trace.bytes",
    "prefix.hit_ratio", "prefix.cached_token_ratio",
    "router.reroutes", "router.fallbacks", "router.reroute_ratio",
    "fleet.scale_actions", "fleet.kv_transfers",
    "telemetry.export_bytes", "telemetry.export_events_per_s",
    "telemetry.load_events_per_s",
    "replay.events_per_s", "replay.exact",
    "mining.anomalies", "mining.incidents",
)

#: token counters of the traced run: label -> tokens in one call's input
TOKEN_COUNTERS = {
    "model.transformer.prefill": lambda args, kwargs: int(args[1].size),
    "model.transformer.decode_step": lambda args, kwargs: int(args[1].size),
}
