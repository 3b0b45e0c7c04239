"""RPR002 fixture: every field is hashed, aliased or documented.

``backend`` / ``eval_batch_size`` / ``cache_dir`` / ``stages`` sit on
the default ``stage_key_exclusions`` allowlist;
``digest()`` only drops the documented ``cache_dir``; ``bits`` is read
through the ``word_bits`` accessor alias.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class PipelineConfig:
    app: str
    bits: int = 8
    seed: int = 0
    backend: str = "auto"
    eval_batch_size: int = 256
    cache_dir: str = "cache"
    stages: tuple = ()

    def word_bits(self):
        return self.bits

    def to_dict(self):
        return {
            "app": self.app,
            "bits": self.bits,
            "seed": self.seed,
            "backend": self.backend,
            "eval_batch_size": self.eval_batch_size,
            "cache_dir": self.cache_dir,
            "stages": list(self.stages),
        }

    def digest(self):
        data = self.to_dict()
        data.pop("cache_dir")
        return repr(sorted(data.items()))


class Pipeline:
    def __init__(self, config):
        self.config = config

    def _stage_deps(self, stage, plan):
        cfg = self.config
        return {"app": cfg.app, "bits": cfg.word_bits(),
                "seed": cfg.seed}
