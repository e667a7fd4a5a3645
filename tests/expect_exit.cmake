# Runs the command after "--" and fails unless it exits with EXIT and its
# merged stdout/stderr matches the regular expression REGEX:
#
#   cmake -DEXIT=1 -DREGEX=CLF801 -P expect_exit.cmake -- <command> [args...]
set(cmd)
set(seen_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(seen_dashes)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(seen_dashes TRUE)
  endif()
endforeach()
if(NOT cmd)
  message(FATAL_ERROR "expect_exit.cmake: no command after --")
endif()
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
if(NOT rc STREQUAL EXIT)
  message(FATAL_ERROR "exit ${rc}, expected ${EXIT}:\n${out}")
endif()
if(NOT out MATCHES "${REGEX}")
  message(FATAL_ERROR "output does not match '${REGEX}':\n${out}")
endif()
