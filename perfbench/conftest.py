import run

run.pin_threads()
run.import_program()
