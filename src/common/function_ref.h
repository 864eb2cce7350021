// Non-owning reference to a callable: the parameter type of a callback that runs only
// during the call it is passed to (scan visitors, transaction bodies).
//
// std::function owns a copy of its callable and allocates when the callable does not
// fit its small buffer, which a lambda capturing a few references already does not.
// FunctionRef stores only the callable's address and one trampoline, so binding a
// lambda allocates nothing. The referenced callable must outlive every call through
// the FunctionRef; binding a temporary in a function argument is fine, storing a
// FunctionRef past that argument's full-expression is not.
// Contract: trivially copyable, as thread-safe as the callable it refers to.
#ifndef ZYGOS_COMMON_FUNCTION_REF_H_
#define ZYGOS_COMMON_FUNCTION_REF_H_

#include <memory>
#include <type_traits>
#include <utility>

namespace zygos {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  // Implicit, as std::function's is: a call site passes a lambda straight in.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& fn)
      : callable_(const_cast<void*>(static_cast<const void*>(std::addressof(fn)))),
        call_([](void* callable, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(callable))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const { return call_(callable_, std::forward<Args>(args)...); }

 private:
  void* callable_;
  R (*call_)(void*, Args...);
};

}  // namespace zygos

#endif  // ZYGOS_COMMON_FUNCTION_REF_H_
