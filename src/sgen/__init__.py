"""Multi-scale low-quality image restoration with sequentially gated ensembles.

A self-contained stack: 4-D tape autodiff, strided convolutions and their
adjoints, a gating unit that fuses per-scale features, GAN + MSE training,
a reproducible degradation pipeline, and PSNR/SSIM evaluation.
"""

from .autodiff import (
    Tape,
    Tensor,
    backward,
    grad_check,
)
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import ConfigError, RunConfig, load_config, parse_config, serialize_config
from .data import (
    EVAL_SCALES,
    SamplePair,
    batch_iter,
    bilinear_resize,
    degrade,
    degraded_dataset,
    degraded_pair,
    denormalize,
    make_synthetic_corpus,
    normalize,
)
from .ensemble import MERGE_MODES, MERGE_SITES, merge, sgu
from .losses import d_loss, g_loss, mse_loss
from .metrics import QualityReport, ScaleRow, evaluate, psnr, restore, ssim
from .model import (
    ParamStore,
    build_discriminator,
    build_generator,
    discriminator_forward,
    generator_forward,
)
from .nn import (
    ConvParams,
    conv2d,
    deconv2d,
    global_avg_pool,
)
from .optim import AdamState, adam_step, init_adam
from .ppm import PpmError, load_image, save_image
from .train import TrainResult, run_training

__version__ = "0.1.0"
