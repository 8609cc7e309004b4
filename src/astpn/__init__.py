"""Video-sequence person matcher with joint spatial and temporal attentive
pooling, built on a small taped float64 autodiff engine."""

from .tensor import Graph, ShapeError, Tensor
from .layers import (
    AttentionParams,
    ConvStackParams,
    RnnParams,
    SppConfig,
    attentive_summary,
    conv_stack_forward,
    rnn_forward,
    spp_forward,
)
from .model import (
    AstpnParams,
    CheckpointError,
    LossConfig,
    extract_feature,
    forward_pair,
    hinge_loss,
    identity_loss,
    init_params,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
    total_loss,
)
from .datapipe import (
    DatasetError,
    DatasetSplit,
    PairBatch,
    SequenceSample,
    augment,
    load_dataset,
    lucas_kanade_flow,
    make_split,
    pair_stream,
    preprocess_dataset,
    rgb_to_yuv,
    sample_subsequence,
    synth_dataset,
)
from .evalkit import (
    CmcCurve,
    cmc_from_features,
    compute_cmc,
    cross_dataset_eval,
    emit_report,
    rank_gallery,
)
from .gradcheck import run_gradcheck

__version__ = "0.1.0"
