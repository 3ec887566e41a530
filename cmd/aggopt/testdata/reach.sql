-- A script over the emp/dept demo data that `make reach` runs through
-- `aggopt -demo -batch -f` once per optimizer mode and once with -systemr:
-- an aggregate view joined to a table, a grouped join with HAVING, an
-- outer join, EXISTS, ORDER BY, and a materialized view maintained by an
-- INSERT. aggopt prints the last statement's result.
create view dsal (dno, total, n) as select dno, sum(sal), count(*) from emp group by dno;
select d.dno, d.budget, v.total from dept d, dsal v where d.dno = v.dno and v.total > d.budget order by 1;
select e.dno, avg(e.sal), min(e.age), max(e.age) from emp e, dept d where e.dno = d.dno and d.budget > 1000 group by e.dno having count(*) > 2;
select d.dno, count(e.eno) from dept d left join emp e on d.dno = e.dno group by d.dno order by 1;
select e.eno from emp e where e.age < 25 and exists (select * from dept d where d.dno = e.dno and d.budget > 5000);
create materialized view dcount as select dno, count(*) as n from emp group by dno;
insert into emp values (100001, 1, 1000.0, 30);
select dno, n from dcount where dno < 5 order by dno;
