"""Serve a constrained digit-recognition network end to end.

The full deployment path on a tiny training budget:

1. train the paper's digit MLP on the synthetic MNIST stand-in,
2. retrain it under ASM weight constraints (2 alphabets, Algorithm 1/2),
3. lower it onto the integer engine and export a serving artifact,
4. load it into a registry, start the batched HTTP server,
5. send a predict request and read back predictions + live energy stats.

Run:  PYTHONPATH=src python examples/serve_digits.py
"""

import json
import tempfile
import threading
import urllib.request

from repro.asm.alphabet import ALPHA_2
from repro.asm.constraints import WeightConstrainer
from repro.asm.multiplier import Multiplier
from repro.datasets.registry import build_model, load_dataset
from repro.nn.optim import SGD
from repro.nn.quantized import QuantizationSpec, QuantizedNetwork
from repro.nn.trainer import Trainer
from repro.serving import BatchSettings, ModelRegistry, create_server
from repro.serving.artifact import save_artifact
from repro.training.constrained import ConstraintProjector, constrained_trainer


def main() -> None:
    print("=== 1. train the digit MLP (tiny budget) ===")
    data = load_dataset("mnist_mlp", n_train=600, n_test=300, seed=0)
    model = build_model("mnist_mlp", seed=1)
    Trainer(model, SGD(model, 0.3), batch_size=32, patience=2).fit(
        data.flat_train, data.y_train_onehot, data.flat_test, data.y_test,
        max_epochs=6)

    print("\n=== 2. constrained retraining for the {1,3} alphabet set ===")
    projector = ConstraintProjector(model, 8, ALPHA_2)
    constrained_trainer(model, SGD(model, 0.075), projector,
                        batch_size=32, patience=2).fit(
        data.flat_train, data.y_train_onehot, data.flat_test, data.y_test,
        max_epochs=4)

    print("\n=== 3. quantise + export the serving artifact ===")
    spec = QuantizationSpec(8, Multiplier(ALPHA_2),
                            constrainer=WeightConstrainer(8, ALPHA_2))
    quantized = QuantizedNetwork.from_float(model, spec)
    workdir = tempfile.mkdtemp(prefix="repro-serve-")
    path = save_artifact(quantized, f"{workdir}/digits")
    print(f"  exported {quantized.spec.label} -> {path}")

    print("\n=== 4. registry + batched HTTP server ===")
    registry = ModelRegistry()
    entry = registry.register(path, name="digits")
    energy = entry.model.energy_per_inference_nj()
    print(f"  registered {entry.key}: {energy:.1f} nJ/inference estimated")
    server = create_server(registry,
                           settings=BatchSettings(max_batch_size=32))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    print(f"  serving on {base}")

    print("\n=== 5. predict over HTTP ===")
    inputs = data.flat_test[:8]
    request = urllib.request.Request(
        f"{base}/predict",
        data=json.dumps({"model": "digits",
                         "inputs": inputs.tolist()}).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=30.0) as response:
        payload = json.loads(response.read())
    print(f"  predictions: {payload['predictions']}")
    print(f"  labels:      {data.y_test[:8].tolist()}")
    print(f"  latency: {payload['latency_ms']} ms, "
          f"energy ~{payload['energy_nj_est']:.1f} nJ")
    with urllib.request.urlopen(f"{base}/stats", timeout=10.0) as response:
        stats = json.loads(response.read())
    print(f"  served {stats['samples_total']} samples, "
          f"{stats['energy']['total_nj']} nJ total estimated")

    server.shutdown()
    thread.join(timeout=5.0)


if __name__ == "__main__":
    main()
