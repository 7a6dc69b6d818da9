module shadowedit/bench

go 1.22

require shadowedit v0.0.0

replace shadowedit => ../
