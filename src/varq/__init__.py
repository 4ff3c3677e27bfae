"""Statevector simulator and training harness for a batched variational
classifier.

The pipeline: amplitude-encode feature vectors, store a balanced batch in
a superposition-addressed register, run a shared parameterized circuit on
the data qubits, and score the whole batch with one swap test against an
address-correlated label state. Training is plain gradient descent on
the exact gradient of that batched loss (the parameter-shift rule), read
for a batch from one forward and one backward sweep over the circuit's
layers.

Importing varq before numpy runs numpy's OpenBLAS on one thread: the
package sets OPENBLAS_NUM_THREADS to 1 unless the caller has set it.
Where numpy was imported first, the setting has no effect.
"""

import os

# varq's matrices are tiny (2^k wide), so a BLAS worker thread would only
# spin; this must run before numpy is first imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .ansatz import (
    AnsatzSpec,
    ParameterVector,
    apply_ansatz,
    init_parameters,
)
from .costmodel import cost_table
from .dataset import BinaryTask, IrisTable, default_data_path, load_iris, make_task
from .encoding import (
    EncodedSample,
    EncodedSet,
    FeatureSet,
    FeatureVector,
    encode_dataset,
)
from .errors import ConfigurationError, OptimizationError, VarqError
from .loss import (
    Shots,
    batched_loss,
    swap_test,
)
from .qram import QramStore, build_store, query_superposed
from .statevector import StateVector
from .trainer import (
    EpochMetrics,
    TrainConfig,
    accuracy,
    numerical_gradient,
    train,
)

__version__ = "1.0.0"

__all__ = [
    "AnsatzSpec",
    "BinaryTask",
    "ConfigurationError",
    "EncodedSample",
    "EncodedSet",
    "EpochMetrics",
    "FeatureSet",
    "FeatureVector",
    "IrisTable",
    "OptimizationError",
    "ParameterVector",
    "QramStore",
    "Shots",
    "StateVector",
    "TrainConfig",
    "VarqError",
    "accuracy",
    "apply_ansatz",
    "batched_loss",
    "build_store",
    "cost_table",
    "default_data_path",
    "encode_dataset",
    "init_parameters",
    "load_iris",
    "make_task",
    "numerical_gradient",
    "query_superposed",
    "swap_test",
    "train",
    "__version__",
]
