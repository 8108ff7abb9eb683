"""Streaming background subtraction with per-brick linear dynamic models.

Frames are cut into small space-time bricks; each grid cell keeps a linear
model of its descriptor sequence (an orthonormal appearance basis plus a
state transition with shaped innovation noise).  New bricks are labelled
by thresholding appearance and innovation residuals, and the models are
updated online from occlusion-composed, robustly reweighted observations,
so parked foreground never bleeds into the background model.
"""

__version__ = "0.1.0"
