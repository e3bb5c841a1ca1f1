#ifndef WQE_COMMON_FUNCTION_REF_H_
#define WQE_COMMON_FUNCTION_REF_H_

#include <memory>
#include <type_traits>
#include <utility>

namespace wqe {

template <typename Signature>
class FunctionRef;

/// Non-owning reference to a callable: std::function's call syntax without
/// its copy or heap allocation. It refers to the callable passed in, so it
/// is only valid while that callable lives — pass it down a call, never
/// store it.
template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FunctionRef(F&& f)  // implicit, like std::function
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

}  // namespace wqe

#endif  // WQE_COMMON_FUNCTION_REF_H_
