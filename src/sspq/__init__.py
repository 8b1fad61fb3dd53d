"""Structure-similarity-preserving product quantization for asymmetric retrieval.

Train a product quantizer over a frozen gallery encoder's embedding space,
align a lightweight query encoder to that space by matching temperature-
softened similarity distributions over the shared codebook centroids, and
evaluate symmetric vs. asymmetric retrieval (exact and PQ-compressed) by mAP.
"""

from .embeddings import EmbeddingMatrix, export_embeddings, import_embeddings
from .encoder import QueryEncoder, encoder_init, forward_matrix, load_checkpoint, save_checkpoint
from .evaluation import (
    EvalReport,
    average_precision,
    evaluate,
    evaluate_pq,
    exact_search,
)
from .quantizer import (
    KMeansResult,
    ProductCodebook,
    codebook_load,
    codebook_save,
    encode_matrix,
    kmeans_fit,
    memory_report,
    train_product_codebook,
)
from .synth import gen_mixture, make_oracle, oracle_encode
from .trainer import TrainConfig, train_query_model

__version__ = "0.1.0"
