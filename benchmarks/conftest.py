"""Shared fixtures for the benchmark harness.

Every table and figure of the paper has one bench module.  They share a
single synthetic OpenBG build (bigger than the unit-test one), the
benchmark suite sampled from it, and the trained backbones used by the
downstream-task benches, so the expensive setup happens once per session.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.benchmark.builders import BenchmarkBuilder
from repro.construction.pipeline import OpenBGBuilder
from repro.datagen.catalog import SyntheticCatalogConfig
from repro.pretrain.mplug import MPlugConfig
from repro.pretrain.pretrainer import Pretrainer, PretrainingConfig
from repro.tasks.encoders import BackboneSpec, build_backbone

# The parity oracle (``kg_oracle``) lives with the tests; the benches
# that price the ID-space path against it import that one copy.
_TESTS_DIR = str(Path(__file__).resolve().parent.parent / "tests")
if _TESTS_DIR not in sys.path:
    sys.path.append(_TESTS_DIR)

#: Scale of the benchmark-harness OpenBG (larger than the unit-test build).
BENCH_CONFIG = SyntheticCatalogConfig(num_products=300, items_per_product=2,
                                      reviews_per_item=2, image_fraction=0.55,
                                      seed=13)

#: Pre-training steps used for the "pretrained" backbones in the benches.
PRETRAIN_STEPS = 30


@pytest.fixture(scope="session")
def construction_result():
    """The constructed synthetic OpenBG used by every bench."""
    return OpenBGBuilder(BENCH_CONFIG, seed=13).build()


@pytest.fixture(scope="session")
def graph(construction_result):
    """The populated knowledge graph."""
    return construction_result.graph


@pytest.fixture(scope="session")
def catalog(construction_result):
    """The synthetic catalog behind the graph."""
    return construction_result.catalog


@pytest.fixture(scope="session")
def benchmark_suite(graph):
    """The OpenBG-IMG / OpenBG500 / OpenBG500-L analogues."""
    return BenchmarkBuilder(graph, seed=13).build_suite()


def _pretrained_backbone(catalog, graph, name: str, use_kg: bool, size: str):
    spec = BackboneSpec(name, pretrained=True, use_kg=use_kg, size=size,
                        pretrain_steps=PRETRAIN_STEPS, seed=13)
    model_config = spec.model_config(vocab_size=1, image_dim=catalog.config.image_dim)
    pretrainer = Pretrainer(
        catalog, graph, model_config=model_config,
        config=PretrainingConfig(steps=PRETRAIN_STEPS, use_kg=use_kg, seed=13,
                                 max_examples=180, batch_size=8))
    pretrainer.pretrain()
    return build_backbone(spec, catalog, graph, pretrainer=pretrainer)


@pytest.fixture(scope="session")
def backbone_baseline(catalog, graph):
    """General-domain baseline (RoBERTa/BERT/mT5/UIE stand-in): no KG, no pre-training."""
    return build_backbone(BackboneSpec("RoBERTa-large", pretrained=False,
                                       use_kg=False, size="large", seed=13),
                          catalog, graph)


@pytest.fixture(scope="session")
def backbone_mplug_base(catalog, graph):
    """mPLUG-base: pre-trained on the e-commerce corpus, no KG enhancement."""
    return _pretrained_backbone(catalog, graph, "mPLUG-base", use_kg=False, size="base")


@pytest.fixture(scope="session")
def backbone_mplug_base_kg(catalog, graph):
    """mPLUG-base+KG: pre-trained with KG triples as unified text tokens."""
    return _pretrained_backbone(catalog, graph, "mPLUG-base+KG", use_kg=True, size="base")


@pytest.fixture(scope="session")
def backbone_mplug_large_kg(catalog, graph):
    """mPLUG-large+KG: the wider/deeper KG-enhanced model."""
    return _pretrained_backbone(catalog, graph, "mPLUG-large+KG", use_kg=True, size="large")
