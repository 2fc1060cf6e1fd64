"""The four benchmark workloads and the inputs each one is given.

Every workload trains 5-way 1-shot tasks with 15 queries at epsilon 0.1 and
ends with the test-split evaluation and ``mean_box_width`` that ``train``
already runs.  The workload seed fixes everything the program receives: the
synthetic pools (generated from it inside ``resolve_data``, or written to
disk here before timing) and the run seed of the config.  See README.md for
why each workload exists.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from fewshot_ibp.config import RunConfig
from fewshot_ibp.episodes import save_dataset, synth_dataset

# The pool and network of the acceptance tests (criteria 7 and 9).
FC_POOL = {
    "n_classes": 12,
    "per_class": 30,
    "shape": [8],
    "class_separation": 3.0,
    "noise_scale": 1.0,
}
FC_LAYERS = [
    {"kind": "fully_connected", "in": 8, "out": 32},
    {"kind": "relu"},
    {"kind": "fully_connected", "in": 32, "out": 16},
]
CONV_POOL = {
    "n_classes": 12,
    "per_class": 30,
    "shape": [1, 10, 10],
    "class_separation": 2.0,
    "noise_scale": 1.0,
}
CONV_LAYERS = [
    {"kind": "conv2d", "in_channels": 1, "out_channels": 8, "kernel": 3},
    {"kind": "batchnorm", "channels": 8},
    {"kind": "relu"},
    {"kind": "maxpool2d", "window": 2},
    {"kind": "flatten"},
    {"kind": "fully_connected", "in": 128, "out": 16},
]

# Run sizes of the self-test's tiny mode.
TINY = {"max_steps": 6, "n_eval_tasks": 3}


@dataclass(frozen=True)
class Workload:
    name: str
    learner: str
    objective: str
    layers: list
    split_index: int
    pool: dict
    on_disk: bool
    max_steps: int
    n_eval_tasks: int
    # lowest test accuracy a correct run reaches at full size, on any seed
    accuracy_floor: float
    extra: dict = field(default_factory=dict)

    def config(self, seed: int, workdir: str, tiny: bool = False) -> RunConfig:
        """The run config for ``seed``; writes the dataset files first when
        the workload loads its pool from disk."""
        data = {}
        for split, offset in (("train", 11), ("test", 13)):
            # seed 0 gives the acceptance-test pool seeds 11 and 13
            synth = {**self.pool, "seed": 1000 * seed + offset, "role": split}
            if self.on_disk:
                path = os.path.join(workdir, f"{split}.ds")
                save_dataset(synth_dataset(**synth), path)
                data[split] = {"path": path}
            else:
                data[split] = {"synth": synth}
        sizes = TINY if tiny else {
            "max_steps": self.max_steps,
            "n_eval_tasks": self.n_eval_tasks,
        }
        return RunConfig(
            learner=self.learner,
            objective=self.objective,
            layers=self.layers,
            split_index=self.split_index,
            data=data,
            epsilon=0.1,
            eval_interval=10_000,
            seed=seed,
            **sizes,
            **self.extra,
        )


MAML = {"meta_batch": 4, "inner_steps": 5, "eval_inner_steps": 10}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "protonet-fc-ibpi", "protonet", "ibpi", FC_LAYERS, 2, FC_POOL,
            on_disk=False, max_steps=600, n_eval_tasks=240, accuracy_floor=0.6,
        ),
        Workload(
            "maml-fc-ibpi", "maml", "ibpi", FC_LAYERS, 2, FC_POOL,
            on_disk=False, max_steps=200, n_eval_tasks=240, accuracy_floor=0.5,
            extra={**MAML, "first_order": True},
        ),
        Workload(
            "protonet-conv-ibp", "protonet", "ibp", CONV_LAYERS, 4, CONV_POOL,
            on_disk=True, max_steps=150, n_eval_tasks=240, accuracy_floor=0.4,
        ),
        Workload(
            "maml2-fc-ibp", "maml", "ibp", FC_LAYERS, 2, FC_POOL,
            on_disk=False, max_steps=150, n_eval_tasks=240, accuracy_floor=0.5,
            extra={**MAML, "first_order": False},
        ),
    )
}
