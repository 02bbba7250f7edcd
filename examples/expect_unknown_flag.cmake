# Runs `BIN [SUBCOMMAND] --FLAG 5` and passes iff the binary rejects the
# flag it does not read: exit code 2 (usage), the usage text, and an error
# naming the flag.
#
#   cmake -DBIN=path/to/binary -DFLAG=name [-DSUBCOMMAND=cmd] \
#         -P expect_unknown_flag.cmake
execute_process(COMMAND ${BIN} ${SUBCOMMAND} --${FLAG} 5
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code EQUAL 2)
  message(FATAL_ERROR "${BIN} exited ${code}, want 2 (usage):\n${out}${err}")
endif()
string(FIND "${err}" "unknown flag --${FLAG}" named)
string(FIND "${out}" "usage:" usage)
if(named EQUAL -1 OR usage EQUAL -1)
  message(FATAL_ERROR "${BIN} did not name --${FLAG} with its usage text:\n"
                      "${out}${err}")
endif()
