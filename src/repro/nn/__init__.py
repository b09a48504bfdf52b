"""Pure-NumPy DNN training substrate.

Replaces the paper's PyTorch stack (see DESIGN.md substitution table). The
caching study needs three things from the model: per-sample losses,
penultimate-layer embeddings, and genuine learning dynamics — all provided
by these hand-rolled layers with explicit forward/backward passes.
"""
