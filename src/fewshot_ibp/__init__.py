"""Few-shot learning with interval-bound neighborhood preservation.

Prototype-based metric learning and gradient-based meta-learning, augmented
with interval bound propagation through the embedding prefix: boxes around
training instances are kept compact by auxiliary losses, and artificial tasks
are formed by interpolating embeddings toward their own bounds.
"""

from .bounds import (
    BoundResult,
    IntervalTensor,
    epsilon_box,
    propagate_layer,
    propagate_prefix,
)
from .config import RunConfig
from .episodes import (
    Dataset,
    Task,
    TaskSpec,
    load_dataset,
    sample_task,
    save_dataset,
    synth_dataset,
)
from .harness import (
    compactness,
    evaluate,
    mean_box_width,
    report,
    train,
)
from .interpolation import (
    MixCoefficients,
    interpolate_batch,
    make_interpolated_task,
    mix_batch,
    sample_mix,
    should_interpolate,
)
from .layers import (
    LayerSpec,
    Network,
    build_network,
    forward,
    load_checkpoint,
    save_checkpoint,
)
from .learners import (
    TaskBatch,
    compute_prototypes,
    cross_entropy,
    maml_adapt,
    maml_outer_step,
    predict_accuracy,
    protonet_logits,
)
from .objective import (
    LossTriple,
    WeightTriple,
    bound_losses,
    dynamic_weights,
    epsilon_schedule,
    total_loss,
)
from .optim import OptimizerState, adam, optimizer_step
from .tensor import NonFiniteError, Node, Tape, as_tensor

__version__ = "0.1.0"
