#include "sim/fiber.hpp"

#include <pthread.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>

#if defined(__SANITIZE_ADDRESS__)
#define NTBSHMEM_FIBER_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#define NTBSHMEM_FIBER_TSAN 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define NTBSHMEM_FIBER_ASAN 1
#endif
#if __has_feature(thread_sanitizer)
#define NTBSHMEM_FIBER_TSAN 1
#endif
#endif

#if defined(NTBSHMEM_FIBER_ASAN)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(NTBSHMEM_FIBER_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

#if defined(NTBSHMEM_FIBER_FAST_SWITCH)
// The whole context switch: push the System-V callee-saved registers and
// the FP control words onto the current stack, swap stack pointers, pop
// them from the new stack, `ret` to wherever the new fiber last saved
// itself (or to its entry function on first switch — see initial_frame()).
// Caller-saved registers need no help: to the compiler this is an ordinary
// extern call, so it already spilled anything live across it.
extern "C" void ntbshmem_fiber_swap(void** save_sp, void* restore_sp);
asm(R"(
.text
.align 16
.globl ntbshmem_fiber_swap
.type ntbshmem_fiber_swap, @function
ntbshmem_fiber_swap:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    subq  $8, %rsp
    stmxcsr (%rsp)
    fnstcw  4(%rsp)
    movq  %rsp, (%rdi)
    movq  %rsi, %rsp
    ldmxcsr (%rsp)
    fldcw   4(%rsp)
    addq  $8, %rsp
    popq  %r15
    popq  %r14
    popq  %r13
    popq  %r12
    popq  %rbx
    popq  %rbp
    ret
.size ntbshmem_fiber_swap, .-ntbshmem_fiber_swap
)");
#endif

namespace ntbshmem::sim {

namespace {
std::size_t page_size() {
  return static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

#if defined(NTBSHMEM_FIBER_FAST_SWITCH)
// Builds the frame ntbshmem_fiber_swap restores on a fiber's first switch:
// zeroed callee-saved registers, the caller's current FP control words
// (fibers inherit the default FP environment), `entry` as the resume
// address, and a null terminator frame above it (entry never returns).
// The resume address sits 16 bytes below the aligned stack top so `ret`
// leaves rsp ≡ 8 (mod 16), exactly as at a normal function entry.
void* initial_frame(void* stack_lo, std::size_t usable, void (*entry)()) {
  auto top = (reinterpret_cast<std::uintptr_t>(stack_lo) + usable) & ~15ULL;
  auto* p = reinterpret_cast<std::uint64_t*>(top);
  p[-1] = 0;                                         // fake caller frame
  p[-2] = reinterpret_cast<std::uint64_t>(entry);    // resume address
  for (int i = 3; i <= 8; ++i) p[-i] = 0;            // rbp,rbx,r12..r15
  std::uint32_t mxcsr = 0;
  std::uint16_t fcw = 0;
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fcw));
  p[-9] = static_cast<std::uint64_t>(mxcsr) |
          (static_cast<std::uint64_t>(fcw) << 32);
  return p - 9;
}
#endif
}  // namespace

Fiber::Fiber() : thread_fiber_(true) {
#if defined(NTBSHMEM_FIBER_ASAN)
  // ASan wants the bounds of the stack being switched *to*; record the
  // thread's native stack so worker fibers can switch back to us.
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* addr = nullptr;
    std::size_t size = 0;
    if (pthread_attr_getstack(&attr, &addr, &size) == 0) {
      stack_lo_ = addr;
      usable_size_ = size;
    }
    pthread_attr_destroy(&attr);
  }
#endif
#if defined(NTBSHMEM_FIBER_TSAN)
  tsan_fiber_ = __tsan_get_current_fiber();
#endif
}

Fiber::Fiber(Entry entry, std::size_t stack_bytes) {
  const std::size_t ps = page_size();
  usable_size_ = ((stack_bytes + ps - 1) / ps) * ps;
  map_size_ = usable_size_ + ps;  // one guard page below the stack
  void* base = mmap(nullptr, map_size_, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  if (base == MAP_FAILED) {
    throw std::runtime_error("Fiber: mmap of " + std::to_string(map_size_) +
                             "-byte stack failed");
  }
  map_base_ = base;
  if (mprotect(map_base_, ps, PROT_NONE) != 0) {
    munmap(map_base_, map_size_);
    map_base_ = nullptr;
    throw std::runtime_error("Fiber: mprotect of stack guard page failed");
  }
  stack_lo_ = static_cast<char*>(map_base_) + ps;
#if defined(NTBSHMEM_FIBER_FAST_SWITCH)
  sp_ = initial_frame(stack_lo_, usable_size_, entry);
#else
  if (getcontext(&ctx_) != 0) {
    throw std::runtime_error("Fiber: getcontext failed");
  }
  ctx_.uc_stack.ss_sp = stack_lo_;
  ctx_.uc_stack.ss_size = usable_size_;
  ctx_.uc_link = nullptr;  // Entry must switch away, never return.
  makecontext(&ctx_, entry, 0);
#endif
#if defined(NTBSHMEM_FIBER_TSAN)
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() { release_dead(); }

void Fiber::release_dead() {
#if defined(NTBSHMEM_FIBER_TSAN)
  if (tsan_fiber_ != nullptr && !thread_fiber_) {
    __tsan_destroy_fiber(tsan_fiber_);
  }
  if (!thread_fiber_) tsan_fiber_ = nullptr;
#endif
  if (map_base_ != nullptr) {
#if defined(NTBSHMEM_FIBER_ASAN)
    // The entry frame never returns, so ASan never clears its redzones;
    // clear them before munmap lets a later stack reuse these addresses.
    __asan_unpoison_memory_region(stack_lo_, usable_size_);
#endif
    munmap(map_base_, map_size_);
    map_base_ = nullptr;
    stack_lo_ = nullptr;
    usable_size_ = 0;
  }
}

void Fiber::switch_to(Fiber& from, Fiber& to) {
#if defined(NTBSHMEM_FIBER_ASAN)
  // A fiber leaving for the last time passes nullptr so ASan releases its
  // fake-stack allocations instead of preserving them for a return.
  void** fake_stack_save = from.exiting_ ? nullptr : &from.asan_fake_stack_;
  __sanitizer_start_switch_fiber(fake_stack_save, to.stack_lo_,
                                 to.usable_size_);
#endif
#if defined(NTBSHMEM_FIBER_TSAN)
  __tsan_switch_to_fiber(to.tsan_fiber_, 0);
#endif
#if defined(NTBSHMEM_FIBER_FAST_SWITCH)
  ntbshmem_fiber_swap(&from.sp_, to.sp_);
#else
  if (swapcontext(&from.ctx_, &to.ctx_) != 0) {
    // Cannot throw across contexts safely; a failed swap leaves both
    // stacks in an undefined state.
    std::abort();
  }
#endif
  // Control returned to `from` — possibly from a different fiber than `to`.
#if defined(NTBSHMEM_FIBER_ASAN)
  __sanitizer_finish_switch_fiber(from.asan_fake_stack_, nullptr, nullptr);
#endif
}

void Fiber::on_entry(Fiber& self) {
#if defined(NTBSHMEM_FIBER_ASAN)
  __sanitizer_finish_switch_fiber(self.asan_fake_stack_, nullptr, nullptr);
#else
  (void)self;
#endif
}

std::size_t Fiber::default_stack_bytes() {
  constexpr std::size_t kDefault = 256 * 1024;
  constexpr std::size_t kMin = 16 * 1024;
  const char* env = std::getenv("NTBSHMEM_FIBER_STACK_KiB");
  if (env == nullptr || *env == '\0') return kDefault;
  char* end = nullptr;
  const unsigned long long kib = std::strtoull(env, &end, 10);
  if (end == env || *end != '\0' || kib == 0) return kDefault;
  const std::size_t bytes = static_cast<std::size_t>(kib) * 1024;
  return bytes < kMin ? kMin : bytes;
}

}  // namespace ntbshmem::sim
