"""hepeval: topology-aware segmentation losses and hepatic vessel evaluation.

The package covers the full desk-scale pipeline: NIfTI-1 volume I/O,
differentiable morphology and the soft-skeleton clDice loss with analytic
gradients, skeleton-graph vessel analysis with Strahler ordering and the
central/peripheral split, lesion-wise tumor detection metrics with
Mann-Whitney comparison, and procedural liver phantoms with oracle-known
ground truth.
"""

__version__ = "0.1.0"

from .volume import (  # noqa: F401
    DEFAULT_SCHEMA,
    BinaryMask,
    Geometry,
    LabelSchema,
    LabelVolume,
    ProbVolume,
    extract_mask,
)
from .nifti import read_nifti, write_nifti  # noqa: F401
from .morphology import (  # noqa: F401
    connected_components,
    pool_array,
)
from .losses import (  # noqa: F401
    GradedScalar,
    LossConfig,
    bootstrapped_ce_loss,
    cl_dice_loss,
    combined_loss,
    cross_entropy_loss,
    finite_difference_check,
    k_schedule,
    soft_dice_loss,
)
from .vessel import (  # noqa: F401
    build_graph,
    classify_central_peripheral,
    identify_gallbladder,
    skeletonize,
)
from .metrics import (  # noqa: F401
    CaseReport,
    EvalConfig,
    LesionReport,
    aggregate,
    cl_dice_metric,
    dsc,
    evaluate_case,
    lesion_match,
    mann_whitney_u,
)
from .phantom import (  # noqa: F401
    DegradeSpec,
    PhantomSpec,
    PhantomTruth,
    TreeSpec,
    degrade,
    generate_case,
)
