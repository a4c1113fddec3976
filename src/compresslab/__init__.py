"""compresslab: a desk-scale model compression workbench.

Train small CNNs, magnitude-prune them, quantize the weights to float16 or
int8, serialize the result, and measure gzipped sizes and a scalar quality
score over the whole sparsity x precision grid.
"""

from .datasets import DatasetFormatError, DatasetSplit, load_cifar10, load_mnist
from .metrics import (CompressionRecord, accuracy_delta, build_report_table,
                      quality_metric, records_from_csv, records_to_csv)
from .nncore import (ARCHITECTURES, LayerSpec, Model, ShapeMismatchError,
                     TrainConfig, TrainingDivergedError, build_model,
                     evaluate_accuracy, forward, infer_architecture,
                     loss_and_grad, model_from_params, split_train_val, train)
from .pruning import (PruneMask, SparsitySchedule, build_mask, magnitude_threshold,
                      prune_and_finetune, schedule_sparsity)
from .quantization import (QuantParams, QuantizedTensor, compute_quant_params,
                           convert_float16, dequantize_params, dequantize_tensor,
                           quantize_params, quantize_tensor)
from .sizing import (ArtifactFormatError, gzip_compress, gzipped_size, load_artifact,
                     parse_model_bytes, reduction_factor, save_artifact,
                     serialize_model)
from .sweep import SweepConfig, parse_config, run_sweep

__version__ = "0.1.0"

__all__ = [
    "ARCHITECTURES", "ArtifactFormatError", "CompressionRecord",
    "DatasetFormatError", "DatasetSplit", "LayerSpec", "Model", "PruneMask",
    "QuantParams", "QuantizedTensor", "ShapeMismatchError", "SparsitySchedule",
    "SweepConfig", "TrainConfig", "TrainingDivergedError", "accuracy_delta",
    "build_mask", "build_model", "build_report_table", "compute_quant_params",
    "convert_float16", "dequantize_params", "dequantize_tensor", "evaluate_accuracy", "forward",
    "gzip_compress", "gzipped_size", "infer_architecture", "load_artifact",
    "load_cifar10", "load_mnist", "loss_and_grad", "magnitude_threshold",
    "model_from_params", "parse_config", "parse_model_bytes",
    "prune_and_finetune", "quality_metric", "quantize_params",
    "quantize_tensor", "records_from_csv", "records_to_csv", "reduction_factor",
    "run_sweep", "save_artifact", "schedule_sparsity", "serialize_model",
    "split_train_val", "train",
]
