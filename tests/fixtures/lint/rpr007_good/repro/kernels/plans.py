"""RPR007 good fixture: own-package and downward imports only."""

from repro import __version__, obs
from repro.fixedpoint.qformat import QFormat
from repro.kernels.registry import get_backend

from . import registry


def plan(layer):
    from repro.utils.serialization import to_jsonable
    return __version__, obs, QFormat, get_backend, registry, to_jsonable
