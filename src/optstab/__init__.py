"""optstab: a desk-scale laboratory for the stability of first-order optimizers.

Measures uniform-stability gaps on coupled perturbed samples, evaluates the
matching closed-form stability/convergence/minimax bounds, verifies the
supporting two-point construction and matrix-product norm envelopes, and
reproduces the scaling experiments through a config-driven CLI.
"""

__version__ = "0.1.0"
