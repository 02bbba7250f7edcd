# Correctness tooling: sanitizer build modes and hardened warnings.
#
# Usage:
#   cmake -B build -S . -DADVTEXT_SANITIZE="address;undefined"
#   cmake -B build -S . -DADVTEXT_SANITIZE=thread
#   cmake -B build -S . -DADVTEXT_WERROR=ON
#
# Everything is applied through three interface targets linked into every
# advtext target (library, tests, benches, examples) so that compile and
# link flags stay consistent across the tree:
#   advtext_codegen    - floating-point code generation rules
#   advtext_warnings   - warning set (+ optional -Werror)
#   advtext_sanitizers - -fsanitize=... compile and link flags

include_guard(GLOBAL)

set(ADVTEXT_SANITIZE "" CACHE STRING
    "Semicolon-separated sanitizers to enable: any of address, undefined, \
thread, memory, leak. address;undefined is the recommended CI combination.")
option(ADVTEXT_WERROR "Treat advtext warnings as errors" OFF)

# ---- Code generation --------------------------------------------------------

add_library(advtext_codegen INTERFACE)
# No multiply-add contraction. Batched == sequential scoring parity and the
# parity between the AVX2 and baseline builds of the hot kernels
# (ADVTEXT_AVX2_CLONES in src/tensor/tensor.h) both rest on every a * b + c
# rounding twice on every path; one fused path would change bits the others
# do not. GCC contracts by default whenever the target has FMA, so without
# this a -march=native, an FMA clone target or an aarch64 build would
# silently break parity.
target_compile_options(advtext_codegen INTERFACE -ffp-contract=off)

# ---- Warnings ---------------------------------------------------------------

add_library(advtext_warnings INTERFACE)
target_compile_options(advtext_warnings INTERFACE
  -Wall
  -Wextra
  -Wshadow
  -Wnon-virtual-dtor
  -Wold-style-cast
  -Wcast-qual
  -Wunused
  -Woverloaded-virtual
  # -Wdouble-promotion is deliberately absent: advtext stores in float and
  # accumulates in double on purpose, so float->double promotion is signal-
  # free here. -Wfloat-conversion flags the lossy direction.
  -Wfloat-conversion
  -Wimplicit-fallthrough
  -Wextra-semi
)
if(CMAKE_CXX_COMPILER_ID MATCHES "Clang")
  # Compile-time lock-discipline proof over the ADVTEXT_CAPABILITY /
  # ADVTEXT_GUARDED_BY annotations in src/util/sync.h (the beta set adds
  # lock-ordering checks). GCC has no equivalent; the annotations expand to
  # nothing there. Under ADVTEXT_WERROR a violation fails the build — the
  # CI `thread-safety` leg builds exactly that configuration and also
  # verifies a deliberately misannotated target (tests/thread_safety_neg)
  # FAILS to compile, proving the analysis is live.
  target_compile_options(advtext_warnings INTERFACE
    -Wthread-safety
    -Wthread-safety-beta
  )
  message(STATUS "advtext: Clang thread-safety analysis enabled")
endif()
if(ADVTEXT_WERROR)
  target_compile_options(advtext_warnings INTERFACE -Werror)
endif()

# ---- Sanitizers -------------------------------------------------------------

add_library(advtext_sanitizers INTERFACE)

if(ADVTEXT_SANITIZE)
  set(_advtext_asan_flags "")
  foreach(_san IN LISTS ADVTEXT_SANITIZE)
    if(_san STREQUAL "address")
      list(APPEND _advtext_asan_flags -fsanitize=address)
    elseif(_san STREQUAL "undefined")
      list(APPEND _advtext_asan_flags -fsanitize=undefined
           -fno-sanitize-recover=undefined)
    elseif(_san STREQUAL "thread")
      list(APPEND _advtext_asan_flags -fsanitize=thread)
    elseif(_san STREQUAL "memory")
      list(APPEND _advtext_asan_flags -fsanitize=memory
           -fsanitize-memory-track-origins)
    elseif(_san STREQUAL "leak")
      list(APPEND _advtext_asan_flags -fsanitize=leak)
    else()
      message(FATAL_ERROR "ADVTEXT_SANITIZE: unknown sanitizer '${_san}' \
(expected address, undefined, thread, memory, or leak)")
    endif()
  endforeach()

  if(("thread" IN_LIST ADVTEXT_SANITIZE OR "memory" IN_LIST ADVTEXT_SANITIZE)
     AND "address" IN_LIST ADVTEXT_SANITIZE)
    message(FATAL_ERROR "ADVTEXT_SANITIZE: address cannot be combined with \
thread or memory")
  endif()

  target_compile_options(advtext_sanitizers INTERFACE
    ${_advtext_asan_flags}
    -fno-omit-frame-pointer
    -g
  )
  target_link_options(advtext_sanitizers INTERFACE ${_advtext_asan_flags})
  # Sanitizer runs are correctness runs: force the debug-only contract
  # checks (ADVTEXT_DCHECK) on even in optimized build types.
  target_compile_definitions(advtext_sanitizers INTERFACE
    ADVTEXT_FORCE_DCHECKS=1)
  # The evaluators resize and reuse their scratch vectors, so a read past
  # size() that stays inside the capacity is invisible to ASan; libstdc++'s
  # own bounds assertions (operator[], front/back, ...) catch it.
  if("address" IN_LIST ADVTEXT_SANITIZE OR
     "undefined" IN_LIST ADVTEXT_SANITIZE)
    target_compile_definitions(advtext_sanitizers INTERFACE
      _GLIBCXX_ASSERTIONS)
  endif()
  message(STATUS "advtext: sanitizers enabled: ${ADVTEXT_SANITIZE} \
(DCHECKs forced on)")
endif()

# Links the three interface targets into an existing target.
function(advtext_apply_toolchain target)
  target_link_libraries(${target} PRIVATE advtext_codegen advtext_warnings
                        advtext_sanitizers)
endfunction()
