"""Typed artifacts on top of the raw disk cache.

Four artifact kinds, all keyed (directly or indirectly) on the module
fingerprint so a stale entry is unreachable by construction:

* ``profile``  — serialized :class:`ProgramProfile` plus the profiled
  program outputs (extends :mod:`repro.profiling.serialize`); key =
  fingerprint + profiler knobs.
* ``golden``   — the golden-run summary a :class:`FaultInjector` needs
  (outputs, per-instruction counts, dynamic count); key = fingerprint.
  Campaign workers load it instead of re-executing the fault-free run
  after re-materializing a :class:`ModuleSpec`.
* ``model``    — per-instruction SDC/vulnerability results of one model
  (TRIDENT, fs+fc, fs, PVF, ePVF); key = fingerprint + model name +
  config digest + profile digest.
* ``campaign`` — merged FI campaign counts; key = fingerprint + every
  knob that can change the executed run set (runs, seed, stopping
  rule).  Serialization of the result itself lives on
  :class:`repro.fi.campaign.CampaignResult` to keep this package free
  of an fi dependency.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from ..profiling.profile import ProgramProfile
from ..profiling.serialize import profile_from_dict, profile_to_dict
from .disk import ArtifactCache
from .fingerprint import combine_key, config_digest, module_fingerprint

PROFILE_KIND = "profile"
GOLDEN_KIND = "golden"
MODEL_KIND = "model"
MODEL_FN_KIND = "model_fn"
CAMPAIGN_KIND = "campaign"
SHARD_KIND = "shard"


# ---------------------------------------------------------------------------
# Profiles


def profile_key(fingerprint: str, sample_cap: int = 32,
                seed: int = 2018) -> str:
    return combine_key("profile", fingerprint, sample_cap, seed)


def load_cached_profile(cache: ArtifactCache,
                        key: str) -> ProgramProfile | None:
    payload = cache.load(PROFILE_KIND, key)
    if payload is None:
        return None
    try:
        return profile_from_dict(payload["profile"])
    except (KeyError, TypeError, ValueError):
        return None


def store_cached_profile(cache: ArtifactCache, key: str,
                         profile: ProgramProfile,
                         outputs: list[str] | None = None) -> bool:
    payload = {"profile": profile_to_dict(profile)}
    if outputs is not None:
        payload["outputs"] = list(outputs)
    return cache.store(PROFILE_KIND, key, payload)


def profile_digest(profile: ProgramProfile) -> str:
    """Content digest of a profile (memoized on the object).

    Model results depend on the profile as much as on the module, and a
    profile may arrive from anywhere (a fresh run, the disk cache, a
    file a user edited); hashing its canonical serialization keys model
    artifacts on what the model actually consumed.  ProgramProfile is a
    mutable (unhashable) dataclass, so the memo rides on the instance
    itself rather than in a WeakKeyDictionary.  The wall-clock
    ``profiling_seconds`` is not content and stays out of the digest, so
    two fresh profiles of one module key the same model results.
    """
    digest = getattr(profile, "_cache_digest", None)
    if digest is None:
        payload = profile_to_dict(profile)
        del payload["profiling_seconds"]
        canonical = json.dumps(payload, sort_keys=True)
        digest = hashlib.sha256(canonical.encode()).hexdigest()
        try:
            profile._cache_digest = digest
        except AttributeError:
            pass  # slotted/frozen profile: just recompute next time
    return digest


# ---------------------------------------------------------------------------
# Golden-run summaries


@dataclass
class GoldenSummary:
    """What a FaultInjector needs from the fault-free reference run.

    Duck-types the :class:`repro.interp.result.RunResult` surface the
    injector and its callers use (``outputs``, ``dynamic_count``,
    ``instruction_counts()``), so a cached summary substitutes for a
    real golden run.
    """

    outputs: list[str]
    counts: dict[int, int]
    dynamic_count: int
    footprint_bytes: int = 0

    def instruction_counts(self) -> dict[int, int]:
        return dict(self.counts)

    @classmethod
    def from_run(cls, result) -> "GoldenSummary":
        return cls(
            outputs=list(result.outputs),
            counts=result.instruction_counts(),
            dynamic_count=result.dynamic_count,
            footprint_bytes=result.footprint_bytes,
        )

    def to_dict(self) -> dict:
        return {
            "outputs": list(self.outputs),
            "counts": {str(k): v for k, v in self.counts.items()},
            "dynamic_count": self.dynamic_count,
            "footprint_bytes": self.footprint_bytes,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GoldenSummary":
        return cls(
            outputs=list(data["outputs"]),
            counts={int(k): v for k, v in data["counts"].items()},
            dynamic_count=data["dynamic_count"],
            footprint_bytes=data.get("footprint_bytes", 0),
        )


def golden_key(fingerprint: str) -> str:
    return combine_key("golden", fingerprint)


def load_golden_summary(cache: ArtifactCache,
                        key: str) -> GoldenSummary | None:
    payload = cache.load(GOLDEN_KIND, key)
    if payload is None:
        return None
    try:
        return GoldenSummary.from_dict(payload)
    except (KeyError, TypeError, ValueError):
        return None


def store_golden_summary(cache: ArtifactCache, key: str,
                         summary: GoldenSummary) -> bool:
    return cache.store(GOLDEN_KIND, key, summary.to_dict())


# ---------------------------------------------------------------------------
# Per-instruction model results


def model_key(fingerprint: str, model_name: str, config_digest: str,
              profile_dig: str) -> str:
    return combine_key("model", fingerprint, model_name, config_digest,
                       profile_dig)


def load_model_results(cache: ArtifactCache,
                       key: str) -> dict[int, float] | None:
    payload = cache.load(MODEL_KIND, key)
    if payload is None:
        return None
    try:
        return {int(k): float(v) for k, v in payload["results"].items()}
    except (KeyError, TypeError, ValueError):
        return None


def store_model_results(cache: ArtifactCache, key: str,
                        results: dict[int, float]) -> bool:
    payload = {"results": {str(k): v for k, v in results.items()}}
    return cache.store(MODEL_KIND, key, payload)


def model_results_key(module, profile: ProgramProfile, model_name: str,
                      config, extra=None) -> str:
    """Key for one model's per-instruction results over one profile.

    ``extra`` carries model inputs living outside the config dataclass
    (e.g. ePVF's FI-measured crash probability).
    """
    return model_key(
        module_fingerprint(module), model_name,
        config_digest(config),
        combine_key(profile_digest(profile), extra),
    )


def bind_model_results(cache: ArtifactCache, model, model_name: str,
                       extra=None) -> int:
    """Warm a model from the cache and arrange write-back.

    Works for any model exposing ``module``/``profile``/``config``,
    ``warm_cache`` and a ``result_sink`` attribute (Trident and the
    PVF/ePVF baselines).  Returns how many per-instruction results were
    restored; newly computed results are persisted whenever the model
    finishes a bulk prediction.
    """
    key = model_results_key(model.module, model.profile, model_name,
                            model.config, extra)
    cached = load_model_results(cache, key)
    if cached:
        model.warm_cache(cached)
    model.result_sink = lambda results: store_model_results(
        cache, key, results
    )
    return len(cached or {})


# ---------------------------------------------------------------------------
# Per-function model-result envelopes (the query pipeline's disk layer)


def function_results_key(query: str, input_key: str,
                         config_projection: str, salt=None,
                         scope: str = "") -> str:
    """Key of one query's per-function result store.

    ``input_key`` is the function's combined (canonical-fingerprint,
    profile-slice-digest) content address, so warm CI runs reuse the
    *unchanged functions* of an edited module across commits — the
    whole-module ``model`` kind only ever matches identical modules.

    ``scope`` is the function *name* for interprocedural queries: two
    content-identical functions compute identical intra-function
    results, but their interprocedural walks route through different
    call sites, so those stores must not be shared between them.
    """
    return combine_key("model_fn", query, scope, input_key,
                       config_projection, salt)


def load_function_results(
    cache: ArtifactCache, key: str,
) -> dict[int, tuple[float, dict | None]] | None:
    """{local index -> (value, dependency key map or None)} or None.

    The dependency map names the *other* functions (and pseudo-inputs
    like the callgraph) an entry's value was derived from; the query
    engine revalidates it entry-by-entry, so one envelope can serve a
    module in which only some of those dependencies still hold.
    """
    payload = cache.load(MODEL_FN_KIND, key)
    if payload is None:
        return None
    try:
        out: dict[int, tuple[float, dict | None]] = {}
        for local, (value, deps) in payload["entries"].items():
            if deps is not None and not isinstance(deps, dict):
                raise TypeError("malformed dependency map")
            out[int(local)] = (float(value), deps)
        return out
    except (KeyError, TypeError, ValueError):
        return None


def store_function_results(
    cache: ArtifactCache, key: str,
    entries: dict[int, tuple[float, dict | None]],
) -> bool:
    payload = {
        "entries": {
            str(local): [value, deps] for local, (value, deps)
            in entries.items()
        }
    }
    return cache.store(MODEL_FN_KIND, key, payload)


# ---------------------------------------------------------------------------
# Campaign keys (result (de)serialization lives on CampaignResult)


def campaign_key(fingerprint: str, runs: int, seed: int, *,
                 ci_halfwidth: float | None = None,
                 ci_outcome: str = "sdc",
                 min_runs: int = 100,
                 round_size: int = 0) -> str:
    """Key over everything that can change the executed run set.

    Without a stopping rule the executed set is exactly [0, runs) for
    any worker count or chunking (the PR 1 seed protocol), so none of
    the parallelism knobs participate.  With early stopping the stop
    check happens on round boundaries, so the effective round size
    (which the driver derives from the worker count) must be part of
    the key — two configurations that could stop at different prefixes
    never share an entry.
    """
    if ci_halfwidth is None:
        return combine_key("campaign", fingerprint, runs, seed)
    return combine_key(
        "campaign", fingerprint, runs, seed,
        ci_halfwidth, ci_outcome, min_runs, round_size,
    )


def shard_key(campaign: str, start: int, count: int) -> str:
    """Key of one completed shard's partial-campaign checkpoint.

    Scoped under the campaign key (which already covers the module
    fingerprint, seed, run budget and stopping rule) plus the shard's
    exact run range: a re-run that plans the same range — any process,
    any machine — replays the stored counts instead of re-injecting,
    so a killed worker's completed shards are never lost.  Payload
    (de)serialization lives on :class:`repro.sched.spec.ShardResult`.
    """
    return combine_key("shard", campaign, start, count)
