"""OpenACC lowering to the GPU dialect (Section VI-C).

MLIR provides no pass out of the ``acc`` dialect, so the paper develops one:

* every ``scf.for`` loop inside an ``acc.kernels`` region becomes an
  ``scf.parallel`` loop,
* the region contents are inlined (the existing
  ``convert-parallel-loops-to-gpu`` pass later turns the parallel loops into
  ``gpu.launch`` kernels),
* CUDA managed memory is assumed: ``acc.create`` / ``acc.copyin`` become
  ``gpu.host_register`` and ``acc.delete`` becomes
  ``gpu.host_unregister``.
"""

from __future__ import annotations

from ..dialects import acc as acc_d
from ..dialects import gpu as gpu_d
from ..dialects import scf
from ..ir.core import Operation
from ..ir.pass_manager import FunctionPass, register_pass
from .scf_to_parallel import convert_loop_to_parallel


@register_pass
class ConvertAccToGpuPass(FunctionPass):
    """``convert-acc-to-gpu``: the paper's OpenACC lowering."""

    NAME = "convert-acc-to-gpu"

    def run_on_function(self, func: Operation) -> None:
        # data-movement clauses
        for op in list(func.walk()):
            if op.name in ("acc.create", "acc.copyin"):
                register = gpu_d.HostRegisterOp(op.operands[0])
                op.parent.insert_before(op, register)
                if op.results:
                    op.replace_all_uses_with([op.operands[0]])
                op.erase(check_uses=False)
            elif op.name == "acc.delete":
                unregister = gpu_d.HostUnregisterOp(op.operands[0])
                op.parent.insert_before(op, unregister)
                op.erase(check_uses=False)
        # kernels/data regions: parallelise contained loops, then inline
        for op in list(func.walk()):
            if op.name in ("acc.kernels", "acc.data"):
                self._lower_region(op)

    def _lower_region(self, op: Operation) -> None:
        # convert every directly nested scf.for into scf.parallel
        for inner in list(op.walk()):
            if inner.name == "scf.for" and inner.parent is not None:
                # only outermost loops within the region
                enclosing = [a for a in inner.ancestors()
                             if a.name in ("scf.for", "scf.parallel")]
                if not any(op.is_ancestor_of(a) or a is op for a in enclosing):
                    convert_loop_to_parallel(inner)
        # inline the region body before the op
        body = op.regions[0].blocks[0]
        terminator = body.terminator
        if terminator is not None:
            terminator.erase(check_uses=False)
        for inner in list(body.ops):
            inner.detach()
            op.parent.insert_before(op, inner)
        if op.results:
            op.replace_all_uses_with(list(op.operands[:len(op.results)]))
        op.erase(check_uses=False)


__all__ = ["ConvertAccToGpuPass"]
