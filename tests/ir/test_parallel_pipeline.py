"""What function-granular compilation rides on: the clones the function
store serves, ambient pipeline settings, and the one-nest shape of the
standard flow.
"""

from repro.core.fir_to_standard import convert_fir_to_standard
from repro.frontend import lower_to_hlfir
from repro.ir import pipeline_settings, print_op

MULTI_FUNC = """
subroutine pa(n)
  implicit none
  integer, intent(in) :: n
  integer :: i
  real(kind=8), dimension(48) :: u, v
  do i = 1, 48
    v(i) = u(i) * 3.0d0 + 1.0d0
  end do
end subroutine pa

subroutine pb(n)
  implicit none
  integer, intent(in) :: n
  integer :: i
  real(kind=8), dimension(48) :: w
  do i = 2, 47
    w(i) = 0.5d0 * (w(i-1) + w(i+1))
  end do
end subroutine pb

subroutine pc(n)
  implicit none
  integer, intent(in) :: n
  integer :: i
  real(kind=8) :: acc
  real(kind=8), dimension(48) :: x, y
  acc = 0.0d0
  do i = 1, 48
    acc = acc + x(i) * y(i)
  end do
end subroutine pc
"""

def _module():
    return convert_fir_to_standard(lower_to_hlfir(MULTI_FUNC))


def test_clone_preserves_ir_and_renumbers_uids():
    module = _module()
    funcs = [op for op in module.regions[0].blocks[0].ops
             if op.name == "func.func"]
    func = funcs[0]
    restored = func.clone()
    assert print_op(restored) == print_op(func)
    # fresh uids: no op or block may collide with the still-live original
    old_ops = {op._uid for op in func.walk()}
    new_ops = {op._uid for op in restored.walk()}
    assert not (old_ops & new_ops)
    old_blocks = {b._uid for op in func.walk()
                  for r in op.regions for b in r.blocks}
    new_blocks = {b._uid for op in restored.walk()
                  for r in op.regions for b in r.blocks}
    assert not (old_blocks & new_blocks)
    # cloning did not detach the original from its module
    assert func.parent is not None


def test_clone_of_attached_op_is_detached():
    module = _module()
    func = [op for op in module.regions[0].blocks[0].ops
            if op.name == "func.func"][0]
    restored = func.clone()
    assert restored.parent is None


def test_pipeline_settings_scope_and_inheritance():
    from repro.ir import current_settings
    store = object()
    assert current_settings().function_cache is None
    with pipeline_settings(function_cache=store):
        assert current_settings().function_cache is store
        with pipeline_settings():
            assert current_settings().function_cache is store   # inherited
        with pipeline_settings(function_cache=None):
            assert current_settings().function_cache is None    # disabled
        assert current_settings().function_cache is store
    assert current_settings().function_cache is None


def test_standard_flow_pipeline_is_one_function_nest():
    from repro.core.pipelines import standard_flow_pipeline
    text = standard_flow_pipeline(parallelise=True).describe()
    assert text.startswith("builtin.module(func.func(")
    # nothing runs outside the nest: exactly one top-level entry
    inner = text[len("builtin.module("):-1]
    assert inner.startswith("func.func(") and inner.endswith(")")
    assert "convert-scf-to-openmp" in inner
