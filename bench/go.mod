module vmplants/bench

go 1.22

require vmplants v0.0.0

replace vmplants => ../
