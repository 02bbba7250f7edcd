# Runs `BIN [SUBCOMMAND] --FLAG VALUE` and passes iff the binary refuses it
# as a usage error: exit code 2, the usage text, and EXPECT on stderr.
# VALUE defaults to 5 and EXPECT to "unknown flag --FLAG" (a flag the
# binary does not read).
#
#   cmake -DBIN=path/to/binary -DFLAG=name [-DSUBCOMMAND=cmd] \
#         [-DVALUE=value] [-DEXPECT=text] -P expect_usage_error.cmake
if(NOT DEFINED VALUE)
  set(VALUE 5)
endif()
if(NOT DEFINED EXPECT)
  set(EXPECT "unknown flag --${FLAG}")
endif()
execute_process(COMMAND ${BIN} ${SUBCOMMAND} --${FLAG} ${VALUE}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code EQUAL 2)
  message(FATAL_ERROR "${BIN} exited ${code}, want 2 (usage):\n${out}${err}")
endif()
string(FIND "${err}" "${EXPECT}" named)
string(FIND "${out}" "usage:" usage)
if(named EQUAL -1 OR usage EQUAL -1)
  message(FATAL_ERROR "${BIN} did not say '${EXPECT}' with its usage "
                      "text:\n${out}${err}")
endif()
