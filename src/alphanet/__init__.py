"""Classifier composition for long-tailed recognition.

Learns, for every data-poor ("few") class, a small set of coefficients that
linearly blend its weak classifier with the nearest strong classifiers from
data-rich ("base") classes, producing a stronger classifier without touching
the feature extractor.
"""

from .data import (
    ClassifierBank,
    ComposedBank,
    FeatureDataset,
    SplitSpec,
    assign_splits,
    load_bank,
    load_dataset,
    read_tensor,
    save_bank,
    save_dataset,
    write_tensor,
)
from .config import RunConfig
from .datagen import GenConfig, generate, train_baseline
from .model import (
    AlphaModel,
    AlphaVector,
    FitResult,
    SubModule,
    build_model,
    clamp_alpha,
    compose,
    export_composed,
    fit,
    load_model,
    loss_and_grads,
    normalize_alpha,
    sample_epoch,
    save_model,
    submodule_forward,
)
from .neighbors import (
    NeighborSet,
    PcaProjection,
    build_neighbor_set,
    class_means,
    knn_base,
    pca_apply,
    pca_fit,
)
from .reports import (
    ClasswiseReport,
    SplitReport,
    classwise_report,
    gamma_sweep,
    run_training,
    split_report,
    topk_accuracy,
    topk_sweep,
)

__version__ = "0.1.0"
