"""Reference code the decoder never runs.

The training losses and their targets (``losses``), the embedding-based
cross-attention scorer (``attention``) and the synthetic embedding banks
that feed it (``embeddings``). Tests and demos use them as checked
numerics; no module outside this package imports them.
"""
