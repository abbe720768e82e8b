"""Motion disentanglement and recomposition for latent videos.

The engine extracts per-subject and background motion descriptors from
masked latent video tensors and injects them as gradient guidance into a
deterministic DDIM-style denoising loop, so a generated video reproduces,
edits, or omits the reference motion.
"""

from .diffusion import (
    Denoiser,
    GaussianAtlasDenoiser,
    NoiseSchedule,
    SamplingGuidance,
    ZeroDenoiser,
    ddim_invert,
    ddim_invert_steps,
    ddim_sample,
    make_initial_noise,
    save_trajectory,
)
from .errors import (
    BadMagic,
    BadValue,
    DimMismatch,
    EmptyRegion,
    IndexOutOfRange,
    IoFailure,
    LengthMismatch,
    MissingBackground,
    MomixError,
    NonFinite,
    NoValidPairs,
    UnknownSubject,
)
from .features import (
    Directive,
    EditPlan,
    MotionDescriptor,
    PairOperator,
    extract_descriptors,
    lsmm,
    motion_delta,
    recompose,
    soft_blend,
)
from .guidance import (
    GuidanceConfig,
    GuidanceTarget,
    guidance_gradient,
    guidance_loss,
    guided_update,
    stable_step_size,
)
from .masks import (
    BACKGROUND_ID,
    MaskEdit,
    apply_edit,
    background_pair_region,
    background_track,
    exclusive_region,
    pair_region,
    set_difference,
    union,
)
from .metrics import (
    TrajectoryReport,
    compare_trajectories,
    descriptor_distance,
    displacement_similarity,
    trajectory_rmse,
)
from .synth import (
    BlobSpec,
    SceneSpec,
    centroid_trajectory,
    estimate_blob_track,
    render_scene,
)
from .tensors import (
    LatentVideo,
    MaskTrack,
    SceneManifest,
    load_manifest,
    load_mask,
    load_tensor,
    save_manifest,
    save_mask,
    save_tensor,
)

__version__ = "0.1.0"
