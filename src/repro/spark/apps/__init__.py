"""The six S/D-intensive HiBench applications of paper Table III.

Every entry of :data:`SPARK_APPS` is a plain function
``run_<app>(backend, scale=1.0, injector=None, frame_streams=False)
-> AppResult`` that builds its own
:class:`~repro.spark.engine.MiniSparkContext` and reaches the backend
only through ``backend.serialize`` / ``backend.deserialize``. SVM and LR
are one trainer (:mod:`repro.spark.apps.linear`) with one spec each.
``scale`` multiplies the record counts (1.0 = the repository's default
scaled-down size; Table III's full inputs are ~4096x larger).
``injector``/``frame_streams`` enable chaos mode: pass a
:class:`repro.faults.FaultInjector` (and hand the same injector to a
``CerealBackend``) to exercise the resilience layers deterministically.
"""

from repro.spark.apps.base import AppResult
from repro.spark.apps.nweight import run_nweight
from repro.spark.apps.linear import run_logistic_regression, run_svm
from repro.spark.apps.bayes import run_bayes
from repro.spark.apps.terasort import run_terasort
from repro.spark.apps.als import run_als

#: name -> runner, in the paper's Figure 2 order.
SPARK_APPS = {
    "nweight": run_nweight,
    "svm": run_svm,
    "bayes": run_bayes,
    "lr": run_logistic_regression,
    "terasort": run_terasort,
    "als": run_als,
}

#: Paper Table III input sizes (MB), for reports.
PAPER_INPUT_MB = {
    "nweight": 156,
    "svm": 1740,
    "bayes": 1126,
    "lr": 1945,
    "terasort": 3072,
    "als": 1331,
}

__all__ = ["AppResult", "SPARK_APPS", "PAPER_INPUT_MB"] + [
    f"run_{name}" for name in ("nweight", "svm", "bayes", "terasort", "als")
] + ["run_logistic_regression"]
