"""Motion disentanglement and recomposition for latent videos.

The engine extracts per-subject and background motion descriptors from
masked latent video tensors and injects them as gradient guidance into a
deterministic DDIM-style denoising loop, so a generated video reproduces,
edits, or omits the reference motion.

The package has no top-level API. Its entry points are ``momix.cli.main``
(the ``momix`` command) and the ``momix.pipeline.run_*`` stages.
"""
