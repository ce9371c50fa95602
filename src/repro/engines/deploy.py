"""The one constructor of a named deployment's cost model and
compression cost spec, shared by ``CompressedGenerationPipeline``, the
experiments (``repro.experiments.common``) and the replay harness
(``repro.serving.replay.build_instance``), so all three price a
deployment — tensor-parallel all-reduce included — identically.
"""

from __future__ import annotations

from repro.compression.base import CompressionCostSpec
from repro.compression.registry import create
from repro.engines.base import ServingCostModel
from repro.engines.presets import get_engine
from repro.hardware.interconnect import NVLINK_A6000, NVLINK_H800
from repro.hardware.specs import get_gpu
from repro.model.arch import get_arch


def cost_model(
    arch: str = "llama-7b",
    gpu: str = "a6000",
    engine: str = "lmdeploy",
    tp: int = 1,
) -> ServingCostModel:
    """Serving cost model for a named deployment.

    A tensor-parallel group all-reduces over its GPU's NVLink: the H800
    link on H800s, the A6000 bridge everywhere else.
    """
    link = None
    if tp > 1:
        link = NVLINK_H800 if gpu.lower() == "h800" else NVLINK_A6000
    return ServingCostModel(
        get_arch(arch), get_gpu(gpu), get_engine(engine), tp=tp,
        interconnect=link,
    )


def comp_spec(name: str) -> CompressionCostSpec:
    """Cost spec for an algorithm label (``"fp16"`` included)."""
    return create(name).cost_spec()
