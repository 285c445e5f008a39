"""Inductive IP embeddings from network flow logs.

Learns per-IP vector representations from Zeek conn.log traffic using a
residual gated graph convolution network that consumes edge features only,
then serves similarity, anomaly and projection queries over the embeddings.
"""

__version__ = "0.1.0"
